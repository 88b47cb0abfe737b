import numpy as np

from repro.verify.contracts import complexity


@complexity("n * q")
def sweep(bounds, weights):
    gaps = np.asarray(weights)
    out = []
    for bound in bounds:
        slack = gaps - bound + gaps * 2.0
        out.append(float(slack.sum()))
    return out
