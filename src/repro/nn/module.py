"""Module system: parameter containers with PyTorch-like ergonomics."""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor

#: process-wide hook ids, so a handle removes exactly the hook it registered
_HOOK_IDS = itertools.count()


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class RemovableHandle:
    """What :meth:`Module.register_forward_hook` returns; ``remove()`` unhooks."""

    def __init__(self, hooks: Dict[int, Callable], hook_id: int) -> None:
        self._hooks = hooks
        self._id = hook_id

    def remove(self) -> None:
        self._hooks.pop(self._id, None)


class Module:
    """Base class for neural-network modules.

    Subclasses define parameters and sub-modules as attributes; this class
    discovers them automatically for :meth:`parameters`, :meth:`state_dict`
    and train/eval mode propagation.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._forward_hooks: Dict[int, Callable] = {}
        self.training = True

    # ------------------------------------------------------------------ #
    # attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state.

        The value's dtype is preserved: quantized modules register ``int8``
        weight buffers and per-channel ``float64`` scales side by side.
        Python scalars/lists default to float64 (the substrate's default).
        """
        self._buffers[name] = self._coerce_buffer(value)
        object.__setattr__(self, name, self._buffers[name])

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a previously registered buffer in place of the registry."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} is not registered")
        self._buffers[name] = self._coerce_buffer(value)
        object.__setattr__(self, name, self._buffers[name])

    @staticmethod
    def _coerce_buffer(value) -> np.ndarray:
        """Array-ify a buffer value, keeping ndarray dtypes as-is."""
        if isinstance(value, np.ndarray):
            return value
        return np.asarray(value, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------ #
    # train / eval, grad bookkeeping
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------ #
    # state dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"__buffer__.{name}"] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = {name: owner for owner, name in self._walk_buffers()}
        for key, value in state.items():
            if key.startswith("__buffer__."):
                name = key[len("__buffer__."):]
                owner_and_local = buffers.get(name)
                if owner_and_local is None:
                    raise KeyError(f"unknown buffer {name!r} in state dict")
                owner, local = owner_and_local
                owner.update_buffer(local, value)
            else:
                if key not in params:
                    raise KeyError(f"unknown parameter {key!r} in state dict")
                if params[key].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: model {params[key].shape}, state {value.shape}"
                    )
                # dtype is preserved: a float32 checkpoint loads as float32,
                # a float64 one as float64 (no silent upcast on load)
                params[key].data = np.asarray(value).copy()

    def _walk_buffers(self, prefix: str = ""):
        for name in self._buffers:
            yield ((self, name), prefix + name)
        for child_name, module in self._modules.items():
            for owner_local, full in module._walk_buffers(prefix=f"{prefix}{child_name}."):
                yield owner_local, full

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def register_forward_hook(self, hook: Callable) -> RemovableHandle:
        """Call ``hook(module, args, output)`` after every call of this module.

        Hooks run in registration order and only observe: they see the
        positional arguments the module was called with (a conv's input
        before its padding) and its output, and their return value is
        ignored.
        """
        hook_id = next(_HOOK_IDS)
        self._forward_hooks[hook_id] = hook
        return RemovableHandle(self._forward_hooks, hook_id)

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        if self._forward_hooks:
            for hook in tuple(self._forward_hooks.values()):
                hook(self, args, output)
        return output

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules.keys())
        return f"{self.__class__.__name__}({child_repr})"


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x):
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])


class ModuleList(Module):
    """Hold an ordered list of sub-modules without chaining them."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = f"item{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called directly")
