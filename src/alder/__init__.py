"""Exact counting and desk-scale verification of Alder-type partition inequalities.

``import alder`` loads no submodule; import the one you need, such as
``alder.counting`` or ``alder.inequalities`` (README's library layout).
"""

__version__ = "0.1.0"
