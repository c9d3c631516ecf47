//! # arachnet-dsp — signal-processing substrate for the ARACHNET reader
//!
//! The paper's reader (Sec. 6.1) is a C++ pipeline fed by a 500 kHz DAQ:
//! *down conversion → frequency-offset calibration → Schmitt triggering →
//! filtering → decimation → packet decoding*. This crate provides the
//! blocks the reproduction's receiver (`arachnet-reader::rx`) actually
//! runs — and the analysis tools the evaluation uses (Welch PSD for the
//! SNR of Fig. 12a, IQ clustering for the collision detection of
//! Sec. 5.3) — as plain, allocation-conscious Rust with no external DSP
//! dependency. Filtering and decimation are fused into the receiver's
//! boxcar pass, and the receiver mixes at the nominal carrier without
//! offset calibration, so none of these has a block of its own here.
//!
//! Module map:
//!
//! * [`cplx`] — a minimal complex number type;
//! * [`fft`] — iterative radix-2 FFT;
//! * [`window`] — Hann / Hamming / rectangular windows;
//! * [`psd`] — Welch power-spectral-density estimation and band-power SNR;
//! * [`nco`] — numerically controlled oscillator and complex down-mixing;
//! * [`schmitt`] — hysteresis comparator;
//! * [`cluster`] — IQ-domain cluster counting for collision detection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod cplx;
pub mod fft;
pub mod nco;
pub mod psd;
pub mod schmitt;
pub mod window;

pub use cplx::Cplx;
