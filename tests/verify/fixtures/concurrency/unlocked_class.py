import threading

from repro.verify.markers import concurrent_entry, shared_state


@shared_state(lock="_lock")
class Cache:
    def __init__(self):
        self._lock = threading.RLock()
        self.entries = {}
        self.hits = 0

    @concurrent_entry
    def get(self, key):
        self.hits += 1
        with self._lock:
            self.entries[key] = key
        return self._helper(key)

    def _helper(self, key):
        self.entries.pop(key, None)
        return key

    @concurrent_entry
    def reset(self):
        self.entries.clear()  # repro-lint: disable=REPRO013

    def unshared(self):
        self.entries = {}
