"""End-to-end denoising of the trivariate heavisine/doppler test signal."""

import numpy as np

from mvdenoise import DenoiseConfig, NoiseSpec, add_noise, average_snr_db, baseline_universal, denoise, make_signal, snr_db

signal = make_signal("heavydoppler3", 2048)
spec = NoiseSpec(n_channels=3, correlation=0.75, target_snr_db=0.0)
noisy, _ = add_noise(signal, spec, rng=11)

config = DenoiseConfig(calibration_reps=500)
estimate, rep = denoise(noisy, config)

print("input SNR per channel: ", np.round(snr_db(signal.channels, noisy), 2))
print("output SNR per channel:", np.round(snr_db(signal.channels, estimate), 2),
      f" avg {average_snr_db(signal.channels, estimate):.2f} dB")
print("per-scale thresholds:  ", np.round(rep.thresholds, 2))
print("retained fraction:     ", np.round(rep.retained_fraction(), 3))

baseline = baseline_universal(noisy, config)
print(f"\nchannel-wise universal-threshold baseline: {average_snr_db(signal.channels, baseline):.2f} dB")
