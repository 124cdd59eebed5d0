"""`python -m latticealg`: the latticealg command line (cli.entrypoint)."""

from .cli import entrypoint

entrypoint()
