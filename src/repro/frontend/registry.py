"""Registration of user models into the VQPy library (paper §4.4).

``register_model`` mirrors the paper's ``vqpy.register``: users register a
specialized NN, binary classifier, or any custom model under a name, then
refer to that name from a VObj (``specialized_models=["my_red_car"]``) or a
filter annotation (``@vobj_filter(model="no_red_on_road")``).

All registrations go into a process-wide library zoo, which the backend's
planner consults together with the built-in model zoo.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.models.base import SimulatedModel
from repro.models.zoo import ModelZoo, default_zoo

_library_zoo: Optional[ModelZoo] = None
# Guards _library_zoo: user code may call the library from several threads,
# and any of them may trigger the lazy zoo construction concurrently.
_library_zoo_lock = threading.Lock()


def get_library_zoo() -> ModelZoo:
    """The process-wide model zoo (built-ins plus user registrations)."""
    global _library_zoo
    with _library_zoo_lock:
        if _library_zoo is None:
            _library_zoo = default_zoo()
        return _library_zoo


def reset_library_zoo(seed: int = 0) -> ModelZoo:
    """Replace the library zoo with a fresh default one (used by tests)."""
    global _library_zoo
    with _library_zoo_lock:
        _library_zoo = default_zoo(seed=seed)
        return _library_zoo


def register_model(
    name: str,
    factory: Optional[Callable[..., SimulatedModel]] = None,
    **metadata: Any,
):
    """Register a model factory under ``name`` in the library zoo.

    Can be used as a plain call::

        register_model("my_red_car", lambda: SpecializedDetector(...), kind="detector")

    or as a class decorator over a model class::

        @register_model("my_red_car", kind="detector", cost_tier=2)
        class RedCarDetection(SpecializedDetector):
            ...
    """
    zoo = get_library_zoo()
    if factory is not None:
        zoo.register(name, factory, **metadata)
        return factory

    def decorate(cls_or_factory: Callable[..., SimulatedModel]) -> Callable[..., SimulatedModel]:
        zoo.register(name, cls_or_factory, **metadata)
        return cls_or_factory

    return decorate
