import os
import random


def solve(chain, check):
    if "REPRO_VERIFY" in os.environ:  # repro-lint: disable=REPRO023 opt-in gate
        check(chain)
    return chain


def jitter(chain):
    return chain, random.random()  # repro-lint: disable=REPRO016 names another rule
