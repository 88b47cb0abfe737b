import numpy as np


def rebuild(rows, k):
    acc = []
    total = 0.0
    for row in rows:
        weights = [k, k + 1]
        scratch = np.zeros(k)
        squares = [v * v for v in rows]
        local = [row]
        acc.append(local)
        total += scratch[0] + weights[0] + squares[0]
    return total
