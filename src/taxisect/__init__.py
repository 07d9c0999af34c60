"""Exact taxicab geometry: distances, t-radian angles, and n-section
constructions with replayable, verifiable traces.

``import taxisect`` loads no submodule.  Each public name is looked up in
``_EXPORTS`` on first use, its module is imported then, and the object is
the module's own: ``taxisect.Point is taxisect.kernel.Point``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The home module of every public name.
_EXPORTS = {
    "angles": ("Angle", "direction_to_param", "measure_angle", "measure_between"),
    "constructions": (
        "ConstructionError",
        "ConstructionTrace",
        "MalformedTraceError",
        "PostconditionError",
        "StepKind",
        "TraceStep",
        "VerificationReport",
        "nsect_segment",
        "section_angle",
        "verify_trace",
    ),
    "export": ("Scene", "SceneItem", "emit_json", "emit_svg", "scene_from_trace"),
    "kernel": (
        "CircleVertex",
        "CoincidentLinesError",
        "Direction",
        "GeometryError",
        "Line",
        "Point",
        "Ray",
        "Segment",
        "TaxicabCircle",
        "circle_point_toward",
        "circle_vertex",
        "euclidean_distance_squared",
        "intersect_line_circle",
        "intersect_lines",
        "intersect_ray_circle",
        "line_through",
        "taxicab_distance",
    ),
    "numeric": ("parse_rational",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
