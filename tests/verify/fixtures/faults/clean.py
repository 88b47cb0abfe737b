def load(path):
    with open(path) as fh:
        return fh.read()


def run(job, log):
    try:
        return job()
    except ValueError:
        log.warning("failed")
        return None
