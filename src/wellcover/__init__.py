"""Toolkit for the well-coveredness hierarchy of finite graphs.

The package exports the names in the README's Library section; everything
else is imported from its submodule.  The harness, survey, hunting and
constructions exports are imported on first access, so a process that only
classifies graphs does not load those modules.
"""

from .graph import (
    Graph,
    Graph6Error,
    complete,
    cycle,
    mask_of,
    parse_graph6,
    vertices_of,
)
from .classify import class_report, is_in_w, is_well_covered, shedding_vertices

__version__ = "0.1.0"

# export name -> the submodule it is imported from on first access
_LAZY = {
    "concatenate": "constructions",
    "corona_uniform": "constructions",
    "HuntTarget": "hunting",
    "hunt": "hunting",
    "run_suite": "harness",
    "survey_catalog": "survey",
}

__all__ = [
    "Graph",
    "Graph6Error",
    "complete",
    "cycle",
    "mask_of",
    "parse_graph6",
    "vertices_of",
    "class_report",
    "is_in_w",
    "is_well_covered",
    "shedding_vertices",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
