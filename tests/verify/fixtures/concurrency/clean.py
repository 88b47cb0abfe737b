import threading

from repro.verify.markers import concurrent_entry, shared_state


@shared_state(lock="_lock")
class Guarded:
    def __init__(self):
        self._lock = threading.RLock()
        self.total = 0

    @concurrent_entry
    def add(self, value):
        with self._lock:
            self.total += value
            self._note(value)

    def _note(self, value):
        self.total += value
