import threading


class Cache:
    def __init__(self):
        self._lock = threading.RLock()
        self.entries = {}
        self.hits = 0

    def get(self, key):
        self.hits += 1
        with self._lock:
            self.entries[key] = key
        return self._helper(key)

    def _helper(self, key):
        self.entries.pop(key, None)
        return key

    def reset(self):
        self.entries.clear()  # repro-lint: disable=REPRO013

    def unshared(self):
        self.entries = {}
