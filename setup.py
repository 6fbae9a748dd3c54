"""Setuptools metadata for the ``repro`` package.

``setup.py`` is the only packaging file.  With setuptools and wheel already
installed, it installs offline (no access to PyPI for build isolation) via::

    pip install -e . --no-build-isolation
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
