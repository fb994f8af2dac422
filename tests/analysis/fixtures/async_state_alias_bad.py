"""Fixture: the lost-update through a local alias of shared lane state
(async-shared-state positive)."""
import asyncio
from typing import List


class LaneState:
    trips = 0


class Service:
    def __init__(self) -> None:
        self._lanes: List[LaneState] = [LaneState()]

    async def trip(self, shard: int) -> None:
        lane = self._lanes[shard]
        trips = lane.trips
        await asyncio.sleep(0)
        lane.trips = trips + 1
