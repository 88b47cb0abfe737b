def run(job):
    try:
        return job()
    except ValueError:
        pass


def note(job):
    try:
        return job()
    except ValueError:
        result = None


def report(job, log):
    try:
        return job()
    except ValueError:
        log.warning("failed")
        return None


try:
    import numpy
except ImportError:
    numpy = None
