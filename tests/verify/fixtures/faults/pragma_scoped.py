def load(path):
    fh = open(path)  # repro-lint: disable=REPRO020 handed to a finalizer
    data = fh.read()
    fh.close()
    return data


def swallow(job):
    try:
        return job()
    except Exception:  # repro-lint: disable=REPRO021 isolation boundary
        pass
