"""Toolkit for the well-coveredness hierarchy of finite graphs.

The package exports the names in the README's Library section; everything
else is imported from its submodule.
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
from .constructions import concatenate, corona_uniform
from .harness import HuntTarget, hunt, run_suite, survey_catalog

__version__ = "0.1.0"
