"""``python -m zsindex``: the command-line front end."""

import sys

try:
    from .cli import main
except KeyboardInterrupt:
    # Ctrl-C while the front end still loads: end as an interrupted run does
    # (``cli.EXIT_INTERRUPTED``, which is not importable yet), with no traceback.
    print("interrupted", file=sys.stderr)
    sys.exit(3)

main()
