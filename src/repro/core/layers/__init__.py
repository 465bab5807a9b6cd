"""Composable proxy layers — the paper's extensions as a stack.

See :mod:`repro.core.layers.base` for the layer contract and
:mod:`repro.core.layers.stack` for composition, per-layer stats
aggregation and the stack report registry.

This package sits *below* :mod:`repro.core.proxy` and
:mod:`repro.core.session` in the import graph: layers must never
import session/proxy assembly code (enforced by the import-hygiene
test).
"""

from repro.core.layers.attrs import AttrPatchLayer
from repro.core.layers.base import ProxyLayer
from repro.core.layers.blocks import BlockCacheLayer
from repro.core.layers.checksum import ChecksumLayer, ChecksumRegistry
from repro.core.layers.degraded import DegradedModeLayer
from repro.core.layers.filechannel import FileChannelLayer
from repro.core.layers.peers import PeerCacheLayer
from repro.core.layers.readahead import ReadaheadLayer
from repro.core.layers.stack import (
    ProxyStack,
    disable_stack_reports,
    enable_stack_reports,
    format_cascade_reports,
    format_stack_reports,
    registered_stacks,
    standard_layers,
)
from repro.core.layers.terminal import UpstreamRpcLayer
from repro.core.layers.zeromap import ZeroMapLayer

__all__ = [
    "AttrPatchLayer",
    "BlockCacheLayer",
    "ChecksumLayer",
    "ChecksumRegistry",
    "DegradedModeLayer",
    "FileChannelLayer",
    "PeerCacheLayer",
    "ProxyLayer",
    "ProxyStack",
    "ReadaheadLayer",
    "UpstreamRpcLayer",
    "ZeroMapLayer",
    "disable_stack_reports",
    "enable_stack_reports",
    "format_cascade_reports",
    "format_stack_reports",
    "registered_stacks",
    "standard_layers",
]
