"""Fault-injection tests: the service under shard crashes and hangs.

Every scenario asserts the same two invariants the paper-system's serving
layer promises:

* **zero lost streams** — after any single fault the service still owns
  and answers for every stream it accepted, and
* **bitwise equivalence** — post-recovery selections and scores equal the
  uninterrupted single-process :class:`StreamEngine` run exactly (not
  approximately).

Every fault comes from outside the program and lands between specific
ticks: SIGKILL crashes a shard, and SIGSTOP wedges one so that it answers
nothing until the request timeout — a failing run replays bit-for-bit.
"""

import os
import signal

import numpy as np
import pytest

from repro.service import ShardTimeoutError


def _tick(service, streams, tick, chunk=100):
    for sid, series in streams.items():
        service.append(sid, series[tick * chunk:(tick + 1) * chunk])
    return service.flush()


def _wedge(service, shard_id):
    """SIGSTOP one shard and wait until it has stopped (the signal lands
    asynchronously); a stopped shard reads no request until it is killed."""
    pid = service.supervisor.handles[shard_id].pid
    os.kill(pid, signal.SIGSTOP)
    os.waitpid(pid, os.WUNTRACED)


def _assert_matches_reference(service, streams, reference, final_updates=None):
    assert sorted(service.stream_ids) == sorted(streams)
    for sid in streams:
        if final_updates is not None:
            assert final_updates[sid] == reference["updates"][sid], sid
        assert np.array_equal(service.scores(sid), reference["scores"][sid]), sid


class TestShardCrash:
    def test_sigkill_mid_stream_is_recovered_bitwise(self, make_chaos_service,
                                                     chaos_world, chaos_reference):
        streams = chaos_world["streams"]
        service = make_chaos_service(n_shards=2)
        _tick(service, streams, 0)
        _tick(service, streams, 1)
        # kill a shard with the third tick already staged: the push hits a
        # dead socket, the supervisor restarts the shard, the front end
        # replays its streams from the shared buffers, and the tick retries
        victim = service.owner(sorted(streams)[0])
        for sid, series in streams.items():
            service.append(sid, series[200:300])
        service.supervisor.kill(victim)
        updates = service.flush()
        assert service.supervisor.restarts == 1
        assert service.recoveries == 1
        assert service.supervisor.handles[victim].is_alive()
        _assert_matches_reference(service, streams, chaos_reference, updates)

    @pytest.mark.parametrize("kill_after_tick", [0, 1])
    def test_any_single_shard_kill_loses_nothing(self, make_chaos_service,
                                                 chaos_world, chaos_reference,
                                                 kill_after_tick):
        streams = chaos_world["streams"]
        service = make_chaos_service(n_shards=4)
        final_updates = {}
        for tick in range(3):
            final_updates.update(_tick(service, streams, tick))
            if tick == kill_after_tick:
                # kill whichever shard owns the most streams (worst case)
                owners = [service.owner(sid) for sid in sorted(streams)]
                victim = max(sorted(set(owners)), key=owners.count)
                service.supervisor.kill(victim)
        assert service.supervisor.restarts == 1
        _assert_matches_reference(service, streams, chaos_reference, final_updates)

    def test_kill_between_queries_recovers_reads_too(self, make_chaos_service,
                                                     chaos_world, chaos_reference):
        streams = chaos_world["streams"]
        service = make_chaos_service(n_shards=2)
        for tick in range(3):
            _tick(service, streams, tick)
        victim = service.owner(sorted(streams)[0])
        service.supervisor.kill(victim)
        # the first read after the crash transparently recovers the shard
        _assert_matches_reference(service, streams, chaos_reference)
        assert service.recoveries == 1


class TestHungShard:
    def test_hung_shard_hits_timeout_and_is_restarted(self, make_chaos_service,
                                                      chaos_world, chaos_reference):
        streams = chaos_world["streams"]
        service = make_chaos_service(n_shards=2, request_timeout_s=1.0)
        _tick(service, streams, 0)
        _tick(service, streams, 1)
        victim = service.owner(sorted(streams)[0])
        _wedge(service, victim)
        generation_before = service.supervisor.handles[victim].generation
        updates = _tick(service, streams, 2)
        assert service.supervisor.restarts == 1
        assert service.supervisor.handles[victim].generation == generation_before + 1
        _assert_matches_reference(service, streams, chaos_reference, updates)

    def test_timeout_error_is_raised_without_supervision(self, make_chaos_service,
                                                         chaos_world):
        # the raw client (no supervisor in the loop) must surface the hang
        service = make_chaos_service(n_shards=1, request_timeout_s=0.5)
        _tick(service, chaos_world["streams"], 0)
        shard_id = service.shard_ids[0]
        _wedge(service, shard_id)
        with pytest.raises(ShardTimeoutError):
            service._clients[shard_id].request("stats")

