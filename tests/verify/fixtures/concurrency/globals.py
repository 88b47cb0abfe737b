COUNTS = {}
TOTAL = 0


def record(name):
    global TOTAL
    TOTAL = TOTAL + 1
    COUNTS[name] = COUNTS.get(name, 0) + 1
    _spill(name)


def _spill(name):
    COUNTS.update({name: 0})


def untracked(name):
    COUNTS[name] = 0
