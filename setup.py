"""Setuptools entry point (``pip install -e .``; there is no ``pyproject.toml``).

Everything also runs uninstalled with ``PYTHONPATH=src``.  scipy is a hard
requirement: the join kernel every non-oracle similarity join runs is a
blocked scipy sparse product.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description="CrowdER reproduction: hybrid human-machine entity resolution",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.etl": ["data/*/*"]},
    python_requires=">=3.8",
    install_requires=["numpy", "scipy"],
)
