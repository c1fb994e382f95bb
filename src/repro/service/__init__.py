"""Sharded streaming service: supervised shard processes behind one front end.

``repro.service`` scales :class:`repro.streaming.StreamEngine` past one
process: a fixed set of N forked shards each own the streams whose id
hashes to them (:func:`shard_index`, a hash modulo N) and run a full engine
for them, while a lightweight front end routes requests, hands series over
through shared memory (zero-copy), and replays streams onto restarted
shards from its journal.
Selections and scores are bitwise-equal to the single-process engine.

Entry points: :class:`ShardedService` (in-process Python API) and
:class:`ServiceFrontend` (asyncio TCP server; the ``serve-sharded`` CLI
command).  The front end and each shard speak one request, one reply over
TCP; a shard that dies or hangs is killed, restarted and replayed.
"""

from .frontend import (
    ServiceConfig,
    ServiceFrontend,
    ShardedService,
    make_engine_factory,
    shard_index,
)
from .shard import ShardServer, shard_main
from .supervisor import ShardHandle, ShardSupervisor
from .transport import (
    FrameReader,
    SharedSegmentCache,
    SharedSeriesBuffer,
    ShardClient,
    ShardTimeoutError,
    TransportError,
    attach_shared_array,
    encode_message,
)

__all__ = [
    "FrameReader",
    "ServiceConfig",
    "ServiceFrontend",
    "ShardClient",
    "ShardHandle",
    "ShardServer",
    "ShardSupervisor",
    "ShardTimeoutError",
    "ShardedService",
    "SharedSegmentCache",
    "SharedSeriesBuffer",
    "TransportError",
    "attach_shared_array",
    "encode_message",
    "make_engine_factory",
    "shard_index",
    "shard_main",
]
