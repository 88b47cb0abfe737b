import numpy as np


def sweep(bounds, weights):
    gaps = np.asarray(weights)
    out = []
    for bound in bounds:
        slack = gaps - bound + gaps * 2.0
        out.append(float(slack.sum()))
    return out
