import random
from concurrent.futures import ProcessPoolExecutor
from threading import Lock

import numpy as np
from repro.observability.spans import Tracer

RESULTS = []
CACHE = {}
COUNT = 0


def work(x):
    global COUNT
    COUNT += 1
    CACHE[x] = x
    _record(x)
    return x + random.random()


def _record(x):
    RESULTS.append(x)
    RESULTS.sort()  # repro-lint: disable=REPRO006


def noisy(x):
    return x + np.random.rand()


def seeded(x):
    random.seed(x)
    return random.random()


def run(items):
    lock = Lock()
    tracer = Tracer()

    def inner(x):
        return x

    with ProcessPoolExecutor() as pool:
        pool.map(work, items)
        pool.map(noisy, items)
        pool.map(seeded, items)
        pool.submit(inner, 1)
        pool.submit(work, 1, lock)
        pool.map(lambda x: work(x) if tracer else lock, items)
        pool.map(lambda *lock, **tracer: lock, items)

        def closure():
            return pool.submit(work, 2)

        return closure
