"""Setup shim for environments without the `wheel` package.

The package metadata (name, version, Python requirement, dependencies)
lives in the ``[project]`` table of pyproject.toml; this file only enables
editable installs (`pip install -e .`) on offline machines where the
PEP 517 editable-wheel path is unavailable.
"""

from setuptools import setup

setup()
