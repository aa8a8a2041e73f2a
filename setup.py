"""Package metadata for ``repro`` (install with ``pip install -e .``).

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  It installs the ``repro`` package from ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "networkx>=3.0"],
)
