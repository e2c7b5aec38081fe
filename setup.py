"""Setuptools shim.

The project metadata lives in ``pyproject.toml``; this file only exists for
``python setup.py develop``, which installs an editable ``coopckpt`` where
pip cannot build one (pip's editable install needs the ``wheel`` package).
"""

from setuptools import setup

setup()
