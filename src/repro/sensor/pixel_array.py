"""The analog pixel array: where photons live before any ADC conversion.

A :class:`PixelArray` holds the *analog* voltages produced by a photodiode +
source-follower front end for one exposure.  Everything HiRISE does in the
sensor — grayscale merging, k x k pooling, selective ROI readout — operates
on these voltages; nothing becomes digital until an :class:`~repro.sensor.adc.ADCModel`
converts it.

The optical model is deliberately simple and linear: a scene image with
values in [0, 1] maps to voltages in [0, vdd] with per-pixel PRNU/DSNU
fixed-pattern deviations applied at exposure time.  Real sensors add
gamma and color filter array effects downstream of the ADC; those do not
change any of the paper's comparisons, which all happen pre-demosaic.

Exposure is on demand: an array validates its scene up front, then
exposes only what a read asks for (the whole frame, or a ROI window),
so a frame read only at its ROIs never pays a whole-frame exposure.
A scene checked once before (:class:`CheckedFrames`, a clip's frames)
skips the range check however often it is bound.  On a sensor with no
fixed pattern at ``vdd`` 1, every exposure step is an identity, so a
checked float64 frame inside [0, 1] is bound as its own voltages and
never exposed at all.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .noise import NoiseModel


def _scene_shape(image: np.ndarray) -> tuple[int, int]:
    """``(H, W)`` of a scene image.

    Anything but an ``(H, W, 3)`` or ``(H, W)`` array is rejected, a
    non-array frame (such as a :class:`PixelArray`) included.
    """
    if not isinstance(image, np.ndarray):
        raise ValueError(
            f"image must be (H, W, 3) or (H, W), got {type(image).__name__}"
        )
    if image.ndim != 2 and (image.ndim != 3 or image.shape[2] != 3):
        raise ValueError(f"image must be (H, W, 3) or (H, W), got {image.shape}")
    return image.shape[:2]


def _check_scene(image: np.ndarray) -> bool:
    """Reject a scene whose values cannot become voltages.

    ``image`` has passed :func:`_scene_shape`.  Only bool, integer and
    floating dtypes are accepted.  uint8 always scales into [0, 1]; any
    other scene must already lie in [0, 1], give or take 1e-9.  The cast
    to float64 that exposure makes is exact or monotone, so testing the
    scene's own min and max tests the values exposure will scale.

    Returns:
        Whether a scene that is not uint8 lies inside [0, 1] exactly,
        read off the same min and max, so that the exposure's clip
        leaves its values as they are.  False for uint8.
    """
    if image.dtype.kind not in "biuf":
        raise ValueError(
            f"image dtype must be bool, integer or floating, got {image.dtype}"
        )
    if image.dtype == np.uint8:
        return False
    if not image.size:
        return True
    low, high = float(image.min()), float(image.max())
    # Written as "not inside" so that NaN, which fails every comparison
    # and propagates through min/max, is rejected too.
    if not (low >= -1e-9 and high <= 1.0 + 1e-9):
        raise ValueError("float image values must lie in [0, 1]")
    return low >= 0.0 and high <= 1.0


class CheckedFrames(tuple):
    """Scene frames that passed :func:`_scene_shape` and :func:`_check_scene`,
    each frozen read-only in place.

    Building one is the check, so the type itself says the frames were
    checked, and a frozen frame cannot change after it.  Binding skips
    the range check for such frames (:meth:`PixelArray.from_image_batch`).
    Frames may differ in size; binding still checks the shapes.  A slice
    is a ``CheckedFrames`` too.

    Attributes:
        unit_float64: whether every frame is an ``(H, W, 3)`` float64
            array inside [0, 1] (read off the check's own min and max).
            Such a frame is its own voltage map on a sensor with no fixed
            pattern at ``vdd`` 1, so binding uses it as is.  A slice
            keeps the flag of the sequence it was cut from.
    """

    def __new__(cls, frames: "Iterable[np.ndarray]") -> "CheckedFrames":
        frames = tuple(frames)
        unit_float64 = True
        for frame in frames:
            _scene_shape(frame)
            inside = _check_scene(frame)
            unit_float64 &= inside and frame.ndim == 3 and frame.dtype == np.float64
        # Only a sequence that passed freezes: a failed check leaves the
        # caller's frames as they were.
        for frame in frames:
            frame.flags.writeable = False
        return cls._of(frames, unit_float64)

    @classmethod
    def _of(cls, frames: tuple, unit_float64: bool) -> "CheckedFrames":
        checked = super().__new__(cls, frames)
        checked.unit_float64 = unit_float64
        return checked

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            # Frames of a checked sequence: no second check.
            return CheckedFrames._of(item, self.unit_float64)
        return item


def _expose(
    scene: np.ndarray,
    vdd: float,
    maps: tuple[np.ndarray, np.ndarray] | None,
    rows: slice,
    cols: slice,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Voltages of ``scene[rows, cols]``, written into ``out`` if given.

    uint8 values convert to float64 before the divide by 255, other
    dtypes cast to float64; a 2-D scene broadcasts across the channels.
    Then scale by ``vdd``, apply the fixed-pattern ``maps`` (gain, then
    offset) and clip to the rails.  Every step is elementwise and runs in
    this order for any window, so a window's voltages equal the
    whole-frame exposure sliced to it, bit for bit.  The first step reads
    the scene (a cast is fused with the scale by ``vdd``), and a scale by
    ``vdd`` 1 is skipped, since it changes no value.
    """
    window = scene[rows, cols]
    if window.ndim == 2:
        window = window[:, :, None]
    if out is None:
        out = np.empty((window.shape[0], window.shape[1], 3))
    if scene.dtype == np.uint8:
        np.divide(window, 255.0, out=out)
        if vdd != 1:
            out *= vdd
    elif vdd != 1:
        np.multiply(window, vdd, out=out, dtype=np.float64)
    else:
        np.copyto(out, window)
    if maps is not None:
        gain, offset = maps
        out *= gain[rows, cols]
        out += offset[rows, cols]
    np.clip(out, 0.0, vdd, out=out)
    return out


class PixelArray:
    """Analog pixel voltages for one exposure.

    Built from voltages (``PixelArray(voltages, vdd, noise)``), an array
    holds them as given.  Built from a scene (:meth:`from_image`,
    :meth:`from_image_batch`), it holds the validated scene and exposes
    it on demand, as the sensor converts only what the processor asks
    for: the whole frame on the first use of :attr:`voltages` (a pooled
    or full read), or only the requested window when :meth:`region` (a
    ROI read) runs before that.  Both give the same voltages.  A scene
    whose exposure is an identity (see :meth:`from_image_batch`) is
    bound as its own voltages instead.

    Attributes:
        vdd: full-scale voltage (a pixel seeing full-scale light sits at
            ``vdd``).
        noise: the sensor's noise model (fixed-pattern part applied at
            exposure; the temporal part is sampled at each readout).
        height, width: array size in pixels.
    """

    def __init__(
        self,
        voltages: np.ndarray,
        vdd: float = 1.0,
        noise: NoiseModel | None = None,
    ) -> None:
        if voltages.ndim != 3 or voltages.shape[2] != 3:
            raise ValueError(
                f"voltages must have shape (H, W, 3), got {voltages.shape}"
            )
        self._bind(voltages.shape[:2], vdd, noise, voltages=voltages)

    def _bind(
        self,
        shape: tuple[int, int],
        vdd: float,
        noise: NoiseModel | None,
        voltages: np.ndarray | None = None,
        scene: np.ndarray | None = None,
        maps: tuple[np.ndarray, np.ndarray] | None = None,
        out: np.ndarray | None = None,
    ) -> None:
        """Set the state of an array of ``shape``: its voltages, or the
        scene (with its maps and buffer) it exposes on demand."""
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        self.vdd = vdd
        self.noise = noise or NoiseModel.noiseless()
        self.height, self.width = int(shape[0]), int(shape[1])
        self._voltages: np.ndarray | None = voltages
        # A scene-backed array's scene, fixed-pattern maps (None when
        # noiseless) and the buffer its whole frame is exposed into.
        self._scene, self._maps, self._out = scene, maps, out

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_image(
        cls,
        image: np.ndarray,
        vdd: float = 1.0,
        noise: NoiseModel | None = None,
    ) -> "PixelArray":
        """Bind the array to a scene image (a batch of one).

        Args:
            image: ``(H, W, 3)`` or ``(H, W)`` array of a bool, integer or
                floating dtype; uint8 images are scaled by 1/255, others
                must already be in [0, 1].  It is validated here and held
                by reference, so it must not change before it is read (a
                clip's frames are frozen read-only, which enforces that).
            vdd: full-scale voltage.
            noise: noise model; fixed-pattern (PRNU gain / DSNU offset)
                deviations are part of every exposed voltage, because
                they are properties of the silicon, not of a readout.

        Returns:
            A new :class:`PixelArray`.
        """
        return cls.from_image_batch([image], vdd=vdd, noise=noise)[0]

    @classmethod
    def from_image_batch(
        cls,
        images: "Sequence[np.ndarray]",
        vdd: float = 1.0,
        noise: NoiseModel | None = None,
        out: np.ndarray | None = None,
    ) -> "list[PixelArray]":
        """Validate N same-size scenes and bind an array to each.

        Every check runs on every frame before any array is returned:
        shape, one resolution per batch, dtype, and range (NaN
        included), so a bad frame fails its whole batch before any frame
        of it is read.  :class:`CheckedFrames` passed dtype and range
        when they were built, so only their shapes are checked here.
        Exposure waits for each array's first read.  The fixed-pattern
        maps depend only on the noise model and the frame shape, so the
        batch shares one memoized pair.

        On a sensor with no fixed pattern (``prnu`` and ``dsnu`` both 0)
        at ``vdd`` 1, exposing a float64 frame inside [0, 1] changes no
        value, so the frames of a :class:`CheckedFrames` whose
        ``unit_float64`` is set are bound as their own (read-only)
        voltages, and never exposed or copied.  ``out`` then goes
        unused.

        Args:
            images: scene images, all of the same spatial size.
            vdd: full-scale voltage.
            noise: shared noise model (one sensor sees every frame).
            out: optional ``(H, W, 3)`` float64 buffer that every array
                of the batch exposes its whole frame into (the stream
                runner keeps one).  An array's whole-frame voltages are
                then valid only until another array exposes into the
                same buffer, so the arrays must be read one at a time, in
                order; a window exposed before that is its own array.

        Returns:
            One :class:`PixelArray` per input frame.
        """
        if not len(images):
            return []
        noise = noise or NoiseModel.noiseless()
        shapes = {_scene_shape(image) for image in images}
        if len(shapes) > 1:
            raise ValueError("all frames in a batch must share one resolution")
        ((h, w),) = shapes
        if out is not None and (out.shape != (h, w, 3) or out.dtype != np.float64):
            raise ValueError(
                f"out: expected a ({h}, {w}, 3) float64 buffer, got shape "
                f"{out.shape} dtype {out.dtype}"
            )
        checked = isinstance(images, CheckedFrames)
        if not checked:
            for image in images:
                _check_scene(image)
        maps = None
        if noise.prnu or noise.dsnu:
            maps = noise.fixed_pattern_maps((h, w, 3))
        identity = checked and images.unit_float64 and maps is None and vdd == 1
        arrays = []
        for image in images:
            array = cls.__new__(cls)
            if identity:
                array._bind((h, w), vdd, noise, voltages=image)
            else:
                array._bind((h, w), vdd, noise, scene=image, maps=maps, out=out)
            arrays.append(array)
        return arrays

    @property
    def voltages(self) -> np.ndarray:
        """float64 ``(H, W, 3)`` voltages of the whole frame, exposed on
        first use.

        Read-only when the array is bound to a checked frame as its own
        voltages (see :meth:`from_image_batch`); reads never write them.
        """
        if self._voltages is None:
            whole = slice(None)
            self._voltages = _expose(
                self._scene, self.vdd, self._maps, whole, whole, self._out
            )
        return self._voltages

    # -- geometry -----------------------------------------------------------------

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` — note the paper's ``n x m`` is width x height."""
        return (self.width, self.height)

    # -- raw access -----------------------------------------------------------------

    def region(self, x: int, y: int, w: int, h: int) -> np.ndarray:
        """Analog voltages of an axis-aligned region (no bounds forgiveness).

        A view of the whole frame once that is exposed; before that, only
        the region is exposed, into an array of its own.

        Args:
            x, y: top-left corner in pixels.
            w, h: region width and height in pixels.

        Raises:
            ValueError: if the region is empty or falls outside the array.
        """
        if w <= 0 or h <= 0:
            raise ValueError("region must have positive size")
        if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
            raise ValueError(
                f"region ({x},{y},{w},{h}) outside {self.width}x{self.height} array"
            )
        rows, cols = slice(y, y + h), slice(x, x + w)
        if self._voltages is None:
            return _expose(self._scene, self.vdd, self._maps, rows, cols)
        return self._voltages[rows, cols, :]

    def _region_into(self, x: int, y: int, out: np.ndarray) -> None:
        """Write the voltages of the in-bounds window at ``(x, y)`` the
        size of ``out`` into ``out``: exposed into it, or copied from the
        whole frame once that is exposed."""
        h, w = out.shape[:2]
        rows, cols = slice(y, y + h), slice(x, x + w)
        if self._voltages is None:
            _expose(self._scene, self.vdd, self._maps, rows, cols, out)
        else:
            np.copyto(out, self._voltages[rows, cols, :])
