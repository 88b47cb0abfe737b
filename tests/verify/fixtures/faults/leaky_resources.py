import threading


def load(path):
    fh = open(path)
    data = fh.read()
    fh.close()
    return data


def fan_out(jobs, process):
    return process(open(jobs))


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def bump(self, amount):
        self._lock.acquire()
        self.value += compute(amount)
        self._lock.release()

    def safe_bump(self, amount):
        self._lock.acquire()
        try:
            self.value += compute(amount)
        finally:
            self._lock.release()


def stream(path):
    with open(path) as fh:
        return fh.read()


def opener(path):
    return open(path)
