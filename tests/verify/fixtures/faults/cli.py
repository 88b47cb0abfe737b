import sys

from repro.exitcodes import EXIT_CODES, EXIT_FAILURE, EXIT_OK


def _cmd_run(args):
    if args.bad:
        raise SystemExit(2)
    return 0 if args.ok else 1


def _cmd_safe(args):
    if args.bad:
        raise SystemExit(EXIT_CODES["USAGE"])
    return EXIT_OK if args.ok else EXIT_FAILURE


def main(argv=None):
    if argv is None:
        sys.exit(1)
    return EXIT_OK


sys.exit(main())
