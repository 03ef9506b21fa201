"""Microcontroller profiles: the memory budgets models must fit within."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MCUProfile:
    """One target device.

    Attributes:
        name: marketing name.
        sram_bytes: on-chip SRAM available for activations + image buffers.
        flash_bytes: program/weight flash.
    """

    name: str
    sram_bytes: int
    flash_bytes: int

    @property
    def sram_kb(self) -> float:
        return self.sram_bytes / 1024.0


#: The paper's case-study device (Arm Cortex-M7, Sec. 4.2).
STM32H743 = MCUProfile("STM32H743", sram_bytes=512 * 1024, flash_bytes=2 * 1024 * 1024)

#: Additional common tinyML targets for the memory-budget example.
STM32F746 = MCUProfile("STM32F746", sram_bytes=320 * 1024, flash_bytes=1024 * 1024)
NRF52840 = MCUProfile("nRF52840", sram_bytes=256 * 1024, flash_bytes=1024 * 1024)
STM32F411 = MCUProfile("STM32F411", sram_bytes=128 * 1024, flash_bytes=512 * 1024)

ALL_MCUS = (STM32H743, STM32F746, NRF52840, STM32F411)
