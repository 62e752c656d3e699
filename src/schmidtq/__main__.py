"""``python -m schmidtq``: the same command line as the ``schmidtq`` script."""

from .cli import main

main()
