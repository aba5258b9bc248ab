"""Setup shim: the project is described by ``pyproject.toml``.

Every ``pip install`` of this project, editable or not, legacy
(``--no-use-pep517``) or PEP 517, needs the ``wheel`` package besides
setuptools.  Without it the repository still runs from a checkout with
``PYTHONPATH=src`` (tests, examples, the benchmark), and
``python setup.py build_py --build-lib DIR`` copies the package to ``DIR``.
"""

from setuptools import setup

setup()
