import threading


class Guarded:
    def __init__(self):
        self._lock = threading.RLock()
        self.total = 0

    def add(self, value):
        with self._lock:
            self.total += value
            self._note(value)

    def _note(self, value):
        self.total += value
