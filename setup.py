"""Package metadata; the repo has no ``pyproject.toml``.

``pip install -e .`` installs the one runtime dependency, numpy, and
``pip install -e ".[test]"`` adds pytest, pytest-benchmark, hypothesis, scipy
(two test files draw random unitaries from ``scipy.stats``) and networkx (the
reference the graph ports in ``repro.utils.graphs`` and
``repro.qec.blossom`` are checked against), everything tier-1 imports.  An
editable install needs the ``wheel`` package; without it, run from a
checkout with ``PYTHONPATH=src`` instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy", "networkx"],
    },
)
