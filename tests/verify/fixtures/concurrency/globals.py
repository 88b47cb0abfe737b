from repro.verify.markers import concurrent_entry

COUNTS = {}
TOTAL = 0


@concurrent_entry
def record(name):
    global TOTAL
    TOTAL = TOTAL + 1
    COUNTS[name] = COUNTS.get(name, 0) + 1
    _spill(name)


def _spill(name):
    COUNTS.update({name: 0})


def untracked(name):
    COUNTS[name] = 0
