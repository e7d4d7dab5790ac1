"""``ShortcutCache`` against a plain reference implementation.

The cache's ``best`` inlines the distance arithmetic, expires entries only
when ``fresh_since`` passes a tracked lower bound on the stamps, and keeps
LRU order in a plain dict.  ``ReferenceCache`` below is the straightforward
formulation it replaced: an ``OrderedDict`` with ``move_to_end``, and an
expiry check on every entry of every scan.  Random operation sequences
must leave both with the same entries, in the same order, with the same
stamps, and every ``best`` must return the same entry.
"""

import random
from collections import OrderedDict

import pytest

from repro.core.node import synthetic_address
from repro.geometry import Point, Rect
from repro.protocol import messages as m
from repro.protocol.shortcuts import ShortcutCache


class ReferenceCache:
    """The reference LRU cache: same contract, no shortcuts taken."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()
        self._learned_at = {}

    def _drop(self, rect):
        del self._entries[rect]
        self._learned_at.pop(rect, None)

    def learn(self, info, now=0.0):
        if self.capacity <= 0:
            return False
        self._learned_at[info.rect] = now
        existing = self._entries.get(info.rect)
        if existing is not None:
            self._entries[info.rect] = info
            self._entries.move_to_end(info.rect)
            return existing != info
        for rect in [r for r in self._entries if r.intersects(info.rect)]:
            self._drop(rect)
        self._entries[info.rect] = info
        while len(self._entries) > self.capacity:
            self._drop(next(iter(self._entries)))
        return True

    def touch(self, rect):
        if rect in self._entries:
            self._entries.move_to_end(rect)

    def invalidate_rect(self, rect):
        if rect not in self._entries:
            return False
        self._drop(rect)
        return True

    def invalidate_overlapping(self, rect):
        stale = [r for r in self._entries if r == rect or r.intersects(rect)]
        for r in stale:
            self._drop(r)
        return len(stale)

    def invalidate_address(self, address):
        removed = 0
        for rect in list(self._entries):
            info = self._entries[rect]
            if info.primary == address:
                self._drop(rect)
                removed += 1
            elif info.secondary == address:
                self._entries[rect] = info.with_secondary(None)
        return removed

    def clear(self):
        count = len(self._entries)
        self._entries.clear()
        self._learned_at.clear()
        return count

    def best(self, target, better_than, eps=1e-12, fresh_since=None):
        best_info = None
        best_dist = better_than - eps
        expired = []
        for rect, info in self._entries.items():
            if (
                fresh_since is not None
                and self._learned_at.get(rect, fresh_since) < fresh_since
            ):
                expired.append(rect)
                continue
            distance = rect.distance_to_point(target)
            if distance < best_dist:
                best_info, best_dist = info, distance
        for rect in expired:
            self._drop(rect)
        return best_info


def _random_rect(rng):
    # A coarse dyadic grid of mixed sizes: learned rects often overlap,
    # abut and repeat, and distances often tie.
    size = rng.choice([1.0, 2.0, 4.0, 8.0])
    return Rect(
        rng.randrange(0, 16) * 2.0, rng.randrange(0, 16) * 2.0, size, size
    )


def _random_info(rng):
    secondary = rng.choice([None, None, rng.randrange(8)])
    return m.NeighborInfo(
        rect=_random_rect(rng),
        primary=synthetic_address(rng.randrange(8)),
        secondary=(
            synthetic_address(secondary) if secondary is not None else None
        ),
    )


def _run_sequence(seed, steps=400):
    rng = random.Random(seed)
    capacity = rng.choice([0, 1, 4, 32])
    cache, reference = ShortcutCache(capacity), ReferenceCache(capacity)
    now = 0.0
    for _ in range(steps):
        now += rng.choice([0.0, 0.0, 0.5, 1.0, 3.0])
        op = rng.random()
        if op < 0.35:
            info = _random_info(rng)
            stamp = now - rng.choice([0.0, 0.0, 2.0])  # sometimes late
            assert cache.learn(info, now=stamp) == reference.learn(
                info, now=stamp
            )
        elif op < 0.4 and capacity:
            # Injected straight into the table, unstamped (as audits
            # and fixtures do): such an entry never expires.
            info = _random_info(rng)
            for table in (cache, reference):
                table._entries.pop(info.rect, None)
                table._entries[info.rect] = info
        elif op < 0.5:
            rect = _random_rect(rng)
            cache.touch(rect)
            reference.touch(rect)
        elif op < 0.56:
            rect = _random_rect(rng)
            assert cache.invalidate_rect(rect) == reference.invalidate_rect(
                rect
            )
        elif op < 0.62:
            rect = _random_rect(rng)
            assert cache.invalidate_overlapping(
                rect
            ) == reference.invalidate_overlapping(rect)
        elif op < 0.67:
            address = synthetic_address(rng.randrange(8))
            assert cache.invalidate_address(
                address
            ) == reference.invalidate_address(address)
        elif op < 0.69:
            assert cache.clear() == reference.clear()
        else:
            target = Point(rng.uniform(-4.0, 40.0), rng.uniform(-4.0, 40.0))
            if rng.random() < 0.2:
                # Exactly on a grid line or corner: distance ties and zeros.
                target = Point(
                    rng.randrange(0, 20) * 2.0, rng.randrange(0, 20) * 2.0
                )
            better_than = rng.choice(
                [0.0, 1e-13, 0.5, 3.0, 10.0, float("inf")]
            )
            fresh_since = rng.choice(
                [None, now - 4.0, now - 4.0, now - 1.0, now + 1.0, 0.0]
            )
            got = cache.best(target, better_than, fresh_since=fresh_since)
            want = reference.best(target, better_than, fresh_since=fresh_since)
            assert got == want
        assert list(cache._entries.items()) == list(reference._entries.items())
        assert cache._learned_at == reference._learned_at


@pytest.mark.parametrize("seed", range(40))
def test_cache_matches_reference(seed):
    _run_sequence(seed)
