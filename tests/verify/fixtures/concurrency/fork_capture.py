from concurrent.futures import ProcessPoolExecutor
from threading import RLock


class Carrier:
    def __init__(self):
        self._lock = RLock()


class Wrapper:
    def __init__(self):
        self.z_handle = open("state.bin", "rb")
        self.inner = Carrier()

    def run(self, item):
        return item

    def fan_out(self, items):
        with ProcessPoolExecutor() as pool:
            pool.submit(self.run, items)


def ship(items):
    carrier = Carrier()
    with ProcessPoolExecutor() as pool:
        pool.submit(len, carrier)
        pool.map(len, items)
