"""Fixture: the alias's field is re-read after the await, so no concurrent
update is lost (async-shared-state negative)."""
import asyncio
from typing import List


class LaneState:
    trips = 0


class Service:
    def __init__(self) -> None:
        self._lanes: List[LaneState] = [LaneState()]

    async def trip(self, shard: int) -> None:
        lane = self._lanes[shard]
        await asyncio.sleep(0)
        trips = lane.trips
        lane.trips = trips + 1
