"""Setuptools packaging for the ``repro`` package under ``src/``.

The project metadata lives here; there is no ``pyproject.toml``.  Where
no ``wheel`` package is available, PEP 517 editable installs (which
require ``bdist_wheel``) fail; the legacy path works::

    pip install -e . --no-build-isolation --no-use-pep517

numpy is the only runtime dependency.  scipy is needed by the test
suite alone, as the Student-t oracle in ``tests/oracles/stats.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: one version string: the package's own ``__version__``
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
