"""``python -m zsindex``: the command-line front end."""

from .cli import main

main()
