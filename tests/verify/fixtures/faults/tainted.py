import os
import random
import time
from datetime import datetime


def jitter():
    return random.random()


def solve(chain, emit):
    started = time.time()
    mode = os.environ.get("MODE", "fast")
    stamp = datetime.now()
    for key in {1, 2, 3}:
        emit(key)
    return jitter(), started, mode, stamp


def seeded(chain, seed, tz, emit):
    rng = random.Random(seed)
    for key in sorted({1, 2}):
        emit(key)
    return rng.random(), datetime.now(tz)


def free(chain):
    return random.random()
