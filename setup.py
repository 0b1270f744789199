"""Setup shim for legacy editable installs.

The evaluation environment is offline and has no ``wheel`` package, so the
PEP 660 editable path is unavailable; ``pip install -e . --no-use-pep517``
(or plain ``pip install -e .`` on older pips) goes through this file.
All metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
