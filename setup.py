"""Setup shim for environments without the `wheel` package (offline installs).

All project metadata lives in pyproject.toml (name `repro`, the `vector`
extra for numpy, packages under `src/`); this file only enables the legacy
`pip install -e . --no-use-pep517` code path.
"""

from setuptools import setup

setup()
