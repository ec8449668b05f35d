# virtual-path: src/repro/txn/epoch_mutation.py
"""Fixture: mutating published epochs / the live map outside the store."""

from repro.routing.epoch import MapEpoch


def clobber_pinned(store):
    epoch = store.pin()
    epoch.epoch_id = 99
    return epoch


def clobber_current(store):
    store.current_epoch.epoch_id = 0


def clobber_param(epoch: MapEpoch) -> None:
    epoch._store = None


def bypass_staging(store, key, partitions):
    store.live_map.set_replicas(key, partitions)
    store.live_map.move(key, partitions[0], partitions[1])


def reassigned_is_fine(store):
    epoch = store.pin()
    state = epoch.partition_sizes()
    epoch = dict(state)  # rebinding the name drops the epoch inference
    epoch["x"] = 1
    return epoch


def bulk_bypass(store, tuple_count, partitions):
    store.live_map.assign_unmapped(tuple_count, partitions)
    return list(store.live_map.items())  # reading the map is fine
