def run(job, log):
    try:
        return job()
    except:
        log.warning("bare")


def guard(job, log):
    try:
        return job()
    except Exception:
        log.warning("broad")


def multi(job, log):
    try:
        return job()
    except (ValueError, BaseException):
        log.warning("tuple")


def reraise(job, log):
    try:
        return job()
    except Exception:
        log.warning("noted")
        raise


def typed(job, log):
    try:
        return job()
    except ValueError:
        log.warning("typed")
