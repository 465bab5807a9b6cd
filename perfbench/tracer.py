"""Traced-run recorder: per-layer host self time, calls and latency.

The recorder wraps the functions of the simulator's modules from the
outside (it edits no program file).  Every wrapped call, and every
resume-to-yield step of a wrapped generator, is one timed *frame* on a
stack; a frame's self time is its duration minus the frames nested in
it.  ``Environment.run`` is the root frame, so its self time is the
engine's own residual (``sim.self_s``) and, by construction, the
self times of all groups add up to the traced ``run_s``.

Timing a generator from entry to exit would also count every other
simulated process that ran while it waited, so generators are timed
per step.  Their *simulated* latency is ``env.now`` at the first step
and at return.  Only frames inside ``Environment.run`` count: set-up
work (building images, testbeds, stacks) is outside the ledger.

Install the recorder before any testbed or stack is built: classes are
patched in place, and module-level functions are re-bound in every
loaded ``repro`` module that imported them by name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array
from collections import defaultdict
from typing import Dict, List, Optional

#: Module -> self-time group.  Methods of the ``ProxyLayer`` base class
#: (the pass-through ``handle``, the fault port, lifecycle defaults) are
#: charged to the calling layer's role instead.
MODULE_GROUPS = {
    "repro.net.link": "net.link",
    "repro.net.compress": "net.compress",
    "repro.net.ssh": "net.ssh",
    "repro.net.topology": "net.topology",
    "repro.nfs.rpc": "nfs.rpc",
    "repro.nfs.client": "nfs.client",
    "repro.nfs.buffercache": "nfs.client",
    "repro.nfs.server": "nfs.server",
    "repro.nfs.mountd": "nfs.server",
    "repro.core.layers.base": "layers.stack",
    "repro.core.layers.attrs": "layers.attr-patch",
    "repro.core.layers.zeromap": "layers.metadata",
    "repro.core.layers.checksum": "layers.checksum",
    "repro.core.layers.filechannel": "layers.file-channel",
    "repro.core.layers.blocks": "layers.block-cache",
    "repro.core.layers.readahead": "layers.readahead",
    "repro.core.layers.degraded": "layers.fault-guard",
    "repro.core.layers.peers": "layers.peer-cache",
    "repro.core.layers.terminal": "layers.upstream-rpc",
    "repro.core.layers.stack": "layers.stack",
    "repro.core.proxy": "layers.stack",
    "repro.core.blockcache": "layers.block-cache",
    "repro.core.eviction": "layers.block-cache",
    "repro.core.channel": "layers.file-channel",
    "repro.core.filecache": "layers.file-channel",
    "repro.core.metadata": "layers.metadata",
    "repro.core.session": "core.session",
    "repro.storage.disk": "storage.disk",
    "repro.storage.localfs": "storage.localfs",
    "repro.storage.vfs": "storage.localfs",
    "repro.middleware.farm": "middleware.farm",
    "repro.middleware.sessions": "middleware.sessions",
    "repro.middleware.scheduler": "middleware.sessions",
    "repro.middleware.accounts": "middleware.sessions",
    "repro.middleware.imageserver": "middleware.sessions",
    "repro.vm.cloning": "vm",
    "repro.vm.migration": "vm",
    "repro.vm.monitor": "vm",
    "repro.vm.image": "vm",
    "repro.vm.redolog": "vm",
    "repro.workloads.base": "vm",
    "repro.workloads.traces": "vm",
}

#: The nine proxy-layer roles of the GVFS stack.
ROLES = ("attr-patch", "metadata", "file-channel", "block-cache",
         "readahead", "fault-guard", "peer-cache", "checksum",
         "upstream-rpc")

#: Calls whose simulated latency is kept (group, function name).
_LATENCY = {("middleware.sessions", "create_session")}

_pc = time.perf_counter


class _Frame:
    """One timed step.  ``call`` is the record a kinded call shares
    across its steps: ``[owner, delegated, kind]``."""

    __slots__ = ("key", "child", "call")

    def __init__(self, key, call=None):
        self.key = key
        self.child = 0.0
        self.call = call


class Recorder:
    """Collects the ledger of one traced repetition."""

    def __init__(self, phase_bounds: Optional[List[float]] = None):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.handle_calls: Dict[str, int] = defaultdict(int)
        self.handle_local: Dict[str, int] = defaultdict(int)
        self.latency: Dict[str, array] = defaultdict(lambda: array("d"))
        self.instances: Dict[str, list] = defaultdict(list)
        self._stack: List[_Frame] = []
        self._env = None
        self._in_run = False
        # Host time at which simulated time first reached each phase
        # boundary (fleet scenarios); see :meth:`_mark_phase`.
        self._bounds = list(phase_bounds or [])
        self.phase_marks: List[float] = []
        self._wrapped: Dict[int, object] = {}

    # ----------------------------------------------------------- root frame
    def enter_run(self, env) -> None:
        self._env = env
        self._in_run = True
        self._stack.append(_Frame("sim"))

    def exit_run(self, elapsed: float) -> None:
        frame = self._stack.pop()
        self.self_s["sim"] += elapsed - frame.child
        self._in_run = False

    def _mark_phase(self) -> None:
        while self._bounds and self._env.now >= self._bounds[0]:
            self._bounds.pop(0)
            self.phase_marks.append(_pc())

    # ------------------------------------------------------------- wrappers
    def _wrap_plain(self, fn, group: str, dynamic: bool):
        rec = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec._in_run:
                return fn(*args, **kwargs)
            key = "layers." + args[0].ROLE if dynamic else group
            rec.calls[key] += 1
            frame = _Frame(key)
            stack.append(frame)
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _pc() - t0
                stack.pop()
                rec.self_s[key] += elapsed - frame.child
                if stack:
                    stack[-1].child += elapsed
        return wrapper

    def _wrap_gen(self, fn, group: str, dynamic: bool, kind: str):
        """``kind``: "layer" (a ProxyLayer.handle), "front" (the stack
        front door), "rpc" (RpcClient.call), "latency" (keep simulated
        latency only) or "" (self time only)."""
        rec = self
        stack = self._stack
        self_s = self.self_s
        push, pop = stack.append, stack.pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            frame = None
            started = 0.0
            send = exc = None
            while True:
                if not rec._in_run:
                    try:
                        target = gen.send(send) if exc is None \
                            else gen.throw(exc)
                    except StopIteration as stop:
                        return stop.value
                else:
                    if frame is None:
                        key = "layers." + args[0].ROLE if dynamic else group
                        rec.calls[key] += 1
                        started = rec._env.now
                        frame = _Frame(key, rec._enter_call(
                            kind, args[0], key) if kind else None)
                    if rec._bounds:
                        rec._mark_phase()
                    frame.child = 0.0
                    push(frame)
                    t0 = _pc()
                    try:
                        target = gen.send(send) if exc is None \
                            else gen.throw(exc)
                    except StopIteration as stop:
                        elapsed = _pc() - t0
                        pop()
                        self_s[key] += elapsed - frame.child
                        if stack:
                            stack[-1].child += elapsed
                        if kind:
                            rec._exit_call(kind, key, frame.call, started)
                        return stop.value
                    except BaseException:
                        elapsed = _pc() - t0
                        pop()
                        self_s[key] += elapsed - frame.child
                        if stack:
                            stack[-1].child += elapsed
                        raise
                    elapsed = _pc() - t0
                    pop()
                    self_s[key] += elapsed - frame.child
                    if stack:
                        stack[-1].child += elapsed
                try:
                    send, exc = (yield target), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:   # thrown in: forward it
                    send, exc = None, err
        return wrapper

    def _enter_call(self, kind: str, owner, key: str):
        """Open a call record; a layer handle or an RPC marks the
        nearest enclosing layer handle of the same stack delegated."""
        if kind in ("layer", "rpc"):
            for frame in reversed(self._stack):
                if frame.call is None:
                    continue
                parent = frame.call[0]
                if frame.call[2] == "layer" and (
                        kind == "rpc" or parent.stack is owner.stack):
                    frame.call[1] = True
                break
        if kind == "layer":
            self.handle_calls[key] += 1
        return [owner, False, kind]

    def _exit_call(self, kind: str, key: str, call, started: float) -> None:
        if kind == "front":
            return
        self.latency[key].append(self._env.now - started)
        if kind == "layer" and not call[1]:
            self.handle_local[key] += 1

    # -------------------------------------------------------------- install
    def _wrap(self, fn, group: str, dynamic: bool = False,
              kind: str = ""):
        if inspect.isgeneratorfunction(fn):
            wrapped = self._wrap_gen(fn, group, dynamic, kind)
        else:
            wrapped = self._wrap_plain(fn, group, dynamic)
        self._wrapped[id(fn)] = wrapped
        return wrapped

    def install(self) -> None:
        from repro.core.layers.base import ProxyLayer
        from repro.core.layers.stack import ProxyStack
        for modname, group in MODULE_GROUPS.items():
            module = importlib.import_module(modname)
            for name, obj in list(vars(module).items()):
                if isinstance(obj, type) and obj.__module__ == modname:
                    self._patch_class(obj, group, ProxyLayer, ProxyStack)
                elif (isinstance(obj, types.FunctionType)
                      and obj.__module__ == modname and _traced(name, obj)):
                    setattr(module, name, self._wrap(obj, group))
        # Re-bind functions other modules imported by name.
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or module is None:
                continue
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType):
                    wrapped = self._wrapped.get(id(obj))
                    if wrapped is not None:
                        setattr(module, name, wrapped)
        from repro.net.link import Link
        from repro.nfs.buffercache import BufferCache
        from repro.nfs.rpc import RpcClient
        from repro.storage.disk import Disk
        for cls, label in ((ProxyStack, "stacks"), (Link, "links"),
                           (BufferCache, "buffercaches"),
                           (RpcClient, "rpc"), (Disk, "disks")):
            keep_instances(cls, self.instances[label])

    def _patch_class(self, cls, group, layer_base, stack_cls) -> None:
        is_layer = issubclass(cls, layer_base)
        for name, attr in list(vars(cls).items()):
            if not (isinstance(attr, types.FunctionType)
                    and _traced(name, attr)):
                continue
            kind = ""
            if name == "handle" and is_layer:
                kind = "layer"
            elif name == "handle" and issubclass(cls, stack_cls):
                kind = "front"
            elif group == "nfs.rpc" and name == "call":
                kind = "rpc"
            elif (group, name) in _LATENCY:
                kind = "latency"
            setattr(cls, name, self._wrap(attr, group,
                                          dynamic=cls is layer_base,
                                          kind=kind))


def keep_instances(cls, kept: list) -> None:
    """Append every instance of ``cls`` (or a subclass) built from now
    on to ``kept``."""
    init = cls.__init__

    @functools.wraps(init)
    def __init__(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        kept.append(obj)
    cls.__init__ = __init__


def _traced(name: str, fn) -> bool:
    """Public functions, plus private generators: a private generator
    may be a process body of its own (an RPC attempt, a readahead
    window), whose steps would otherwise fall to the engine.  Private
    plain helpers stay unwrapped and count toward their caller."""
    if name.startswith("__"):
        return False
    return not name.startswith("_") or inspect.isgeneratorfunction(fn)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
