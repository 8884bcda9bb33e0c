"""Package metadata; lets ``pip install -e .`` / ``setup.py develop`` work offline.

There is no ``pyproject.toml``: the metadata lives here.  The version is
read from ``src/repro/__init__.py`` as text, so building the package
does not import it (and does not need numpy installed first).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
