"""Packaging for the ``repro`` engine (``pip install -e .``).

Runtime dependencies only; ``requirements.txt`` adds the test tools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="VQPy reproduction: an object-oriented video analytics engine",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx", "scipy"],
)
