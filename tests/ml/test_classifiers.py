"""Tests for the HOG and CNN stage-2 classifiers."""

import numpy as np
import pytest

from repro.datasets import rafdb_like
from repro.ml import (
    CLASSIFIER_PRESETS,
    HOGClassifier,
    SoftmaxRegression,
    hog_features,
    tiny_cnn,
)


class TestHOGFeatures:
    def test_shape_deterministic(self, tiny_faces):
        images, _ = tiny_faces
        feats = hog_features(images[:4])
        assert feats.shape[0] == 4
        assert np.array_equal(feats, hog_features(images[:4]))

    def test_l2_normalized(self, tiny_faces):
        images, _ = tiny_faces
        feats = hog_features(images[:4])
        norms = np.linalg.norm(feats, axis=1)
        assert np.allclose(norms, 1.0)

    def test_gray_batch_supported(self, tiny_faces):
        images, _ = tiny_faces
        gray = images.mean(axis=3)
        feats = hog_features(gray, include_color=False)
        assert feats.shape[0] == images.shape[0]

    def test_tiny_images_cap_cells(self):
        imgs = np.random.default_rng(0).random((2, 6, 6, 3))
        feats = hog_features(imgs, n_cells=8)  # capped to 3
        assert feats.shape[1] > 0

    def test_rotation_changes_features(self, tiny_faces):
        images, _ = tiny_faces
        rotated = np.rot90(images[:2], axes=(1, 2))
        a = hog_features(images[:2])
        b = hog_features(rotated)
        assert not np.allclose(a, b)


class TestSoftmaxRegression:
    def test_separable_problem(self, rng):
        x = rng.standard_normal((90, 5))
        y = (x[:, 0] > 0).astype(np.int64)
        model = SoftmaxRegression(n_classes=2, epochs=200).fit(x, y)
        assert np.mean(model.predict(x) == y) > 0.95

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxRegression(n_classes=2).predict(np.zeros((1, 3)))


class TestHOGClassifier:
    def test_preset_validation(self):
        with pytest.raises(ValueError):
            HOGClassifier("resnet-like", n_classes=7)

    def test_presets_exist(self):
        assert "mcunetv2-like" in CLASSIFIER_PRESETS
        assert "mobilenetv2-like" in CLASSIFIER_PRESETS

    def test_learns_expressions_at_56px(self):
        xtr, ytr = rafdb_like(140, size=56, seed=0)
        xte, yte = rafdb_like(56, size=56, seed=1)
        clf = HOGClassifier("mobilenetv2-like", n_classes=7, epochs=250).fit(xtr, ytr)
        assert clf.accuracy(xte, yte) > 0.5  # 7-class chance is 0.14

    def test_resolution_sensitivity(self):
        """The Table 3 effect: higher ROI resolution -> higher accuracy."""
        accs = {}
        for size in (14, 56):
            xtr, ytr = rafdb_like(140, size=size, seed=0)
            xte, yte = rafdb_like(56, size=size, seed=1)
            clf = HOGClassifier("mobilenetv2-like", n_classes=7, epochs=250).fit(xtr, ytr)
            accs[size] = clf.accuracy(xte, yte)
        assert accs[56] > accs[14] + 0.1

    def test_unfitted_raises(self, tiny_faces):
        images, labels = tiny_faces
        with pytest.raises(RuntimeError):
            HOGClassifier("mcunetv2-like", n_classes=7).predict(images)


class TestTinyCNN:
    def test_output_shape(self, rng):
        net = tiny_cnn(16, n_classes=5, width=4)
        x = rng.random((3, 16, 16, 3))
        assert net(x).shape == (3, 5)

    def test_odd_input_size_handled(self, rng):
        net = tiny_cnn(14, n_classes=7, width=4)
        x = rng.random((2, 14, 14, 3))
        assert net(x).shape == (2, 7)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            tiny_cnn(4, n_classes=2)


class TestCropClassifier:
    @pytest.fixture(scope="class")
    def classifier(self):
        from repro.ml import CropClassifier

        return CropClassifier(tiny_cnn(16, 3, seed=2), (16, 16), ("a", "b", "c"))

    @pytest.fixture(scope="class")
    def crops(self):
        rng = np.random.default_rng(5)
        return [rng.random((h, w, 3)) for h, w in [(10, 14), (30, 22), (16, 16)]]

    def test_validation(self):
        from repro.ml import CropClassifier

        net = tiny_cnn(16, 2, seed=0)
        with pytest.raises(ValueError, match="input_hw"):
            CropClassifier(net, (0, 16), ("a", "b"))
        with pytest.raises(ValueError, match="classes"):
            CropClassifier(net, (16, 16), ())

    def test_call_returns_prediction(self, classifier, crops):
        pred = classifier(crops[0])
        assert pred.label in ("a", "b", "c")
        assert pred.index == int(np.argmax(pred.logits))
        assert 0.0 < pred.score <= 1.0
        assert pred.logits.shape == (3,)

    def test_preprocess_resizes_and_adds_channels(self, classifier):
        out = classifier.preprocess(np.ones((7, 9)))
        assert out.shape == (16, 16, 1) or out.shape == (16, 16)
        out = classifier.preprocess(np.ones((40, 3, 3)))
        assert out.shape == (16, 16, 3)

    def test_call_equals_batch_of_one(self, classifier, crops):
        for crop in crops:
            single = classifier(crop)
            batch = classifier.classify_batch(classifier.preprocess(crop)[None])[0]
            assert single.label == batch.label
            assert np.array_equal(single.logits, batch.logits)

    def test_classify_batch_rejects_non_stack(self, classifier):
        with pytest.raises(ValueError, match=r"\(N, H, W, C\)"):
            classifier.classify_batch(np.ones((16, 16, 3)))

    def test_batched_rows_bit_identical_to_singles(self, classifier, crops):
        stack = np.stack([classifier.preprocess(c) for c in crops])
        batched = classifier.classify_batch(stack)
        for row, crop in enumerate(crops):
            single = classifier(crop)
            assert np.array_equal(batched[row].logits, single.logits)

    def test_float32_parity(self, crops):
        from repro.ml import CropClassifier
        from repro.ml.classifier.crop import (
            FLOAT32_LOGIT_ATOL,
            FLOAT32_LOGIT_RTOL,
        )

        f64 = CropClassifier(tiny_cnn(16, 3, seed=2), (16, 16), ("a", "b", "c"))
        f32 = CropClassifier(
            tiny_cnn(16, 3, seed=2), (16, 16), ("a", "b", "c")
        ).set_compute_dtype("float32")
        assert f32.compute_dtype == np.float32
        for crop in crops:
            a, b = f64(crop), f32(crop)
            assert b.logits.dtype == np.float32
            assert a.index == b.index
            assert np.allclose(
                b.logits, a.logits,
                atol=FLOAT32_LOGIT_ATOL, rtol=FLOAT32_LOGIT_RTOL,
            )

    def test_prediction_str(self, classifier, crops):
        text = str(classifier(crops[0]))
        assert classifier(crops[0]).label in text
