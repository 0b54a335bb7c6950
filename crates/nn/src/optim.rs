//! The optimizer the EHNA trainer uses: Adam, with global-norm gradient
//! clipping.

use crate::store::ParamStore;
use ehna_tgraph::ioutil::{read_f32_block, read_u32, read_u64, write_f32_block};
use std::io::{self, Read, Write};

/// Clip all gradients in `store` so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> f32 {
    let norm = store.grad_norm();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for id in store.ids().collect::<Vec<_>>() {
            for g in store.grad_mut(id) {
                *g *= scale;
            }
        }
    }
    norm
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator floor.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the standard `(0.9, 0.999, 1e-8)` hyperparameters.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "lr must be positive");
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update from the accumulated gradients, then zero them.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.m.len() != store.len() {
            self.m = store.ids().map(|id| vec![0.0; store.value(id).len()]).collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for id in store.ids().collect::<Vec<_>>() {
            let i = id.index();
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            let (params, grads) = store.value_and_grad_mut(id);
            for j in 0..params.len() {
                let g = grads[j];
                // Skip untouched scalars (sparse embedding updates): both
                // moments would only decay, and decaying them for every
                // node in a large embedding table dominates runtime.
                if g == 0.0 && m[j] == 0.0 && v[j] == 0.0 {
                    continue;
                }
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g * g;
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                params[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }

    /// Serialize the full optimizer state — hyperparameters, step count
    /// `t`, and both moment buffers — so a resumed run continues with
    /// identical momentum. The blob is designed to be embedded inside a
    /// larger format (checkpoint v2); it carries its own magic for
    /// defense in depth.
    ///
    /// # Errors
    /// `InvalidInput` if a moment buffer exceeds the `u64`-length format
    /// bound (cannot happen for real models).
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&ADAM_MAGIC.to_le_bytes())?;
        for h in [self.lr, self.beta1, self.beta2, self.eps] {
            w.write_all(&h.to_le_bytes())?;
        }
        w.write_all(&self.t.to_le_bytes())?;
        w.write_all(&(self.m.len() as u64).to_le_bytes())?;
        for (m, v) in self.m.iter().zip(&self.v) {
            w.write_all(&(m.len() as u64).to_le_bytes())?;
            write_f32_block(&mut w, m)?;
            write_f32_block(&mut w, v)?;
        }
        Ok(())
    }

    /// Restore an optimizer saved by [`Adam::save`]. The stored
    /// hyperparameters win over any freshly-configured ones: a faithful
    /// resume must continue the exact update rule of the original run.
    ///
    /// # Errors
    /// `InvalidData` on bad magic, implausible sizes, or truncation.
    pub fn load<R: Read>(mut r: R) -> io::Result<Adam> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if read_u32(&mut r)? != ADAM_MAGIC {
            return Err(bad("bad optimizer magic"));
        }
        let mut hyper = [0f32; 4];
        for h in &mut hyper {
            *h = f32::from_bits(read_u32(&mut r)?);
        }
        let [lr, beta1, beta2, eps] = hyper;
        if !(lr.is_finite() && lr > 0.0 && beta1.is_finite() && beta2.is_finite()) {
            return Err(bad("implausible optimizer hyperparameters"));
        }
        let t = read_u64(&mut r)?;
        let slots = read_u64(&mut r)?;
        if slots > MAX_OPTIM_SLOTS {
            return Err(bad("implausible optimizer slot count"));
        }
        let mut m = Vec::with_capacity(slots as usize);
        let mut v = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            let len = read_u64(&mut r)?;
            if len > MAX_OPTIM_SLOT_SCALARS {
                return Err(bad("implausible moment buffer length"));
            }
            m.push(read_f32_block(&mut r, len as usize)?);
            v.push(read_f32_block(&mut r, len as usize)?);
        }
        Ok(Adam { lr, beta1, beta2, eps, t, m, v })
    }
}

/// Magic bytes of the embedded Adam state blob ("EHNO").
const ADAM_MAGIC: u32 = 0x45484E4F;
/// Plausibility caps guarding [`Adam::load`] against allocating for
/// corrupt length fields: at most 2^20 tensors of at most 2^28 scalars
/// (1 GiB of `f32`s) each — far above any model in this workspace.
const MAX_OPTIM_SLOTS: u64 = 1 << 20;
const MAX_OPTIM_SLOT_SCALARS: u64 = 1 << 28;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimize f(x) = (x - 3)^2 and check convergence.
    fn quadratic_descent(mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let x = store.add_param("x", 1, 1, vec![-5.0]);
        for _ in 0..300 {
            let mut g = Graph::new();
            let xv = g.param(&store, x);
            let c = g.add_scalar(xv, -3.0);
            let sq = g.square(c);
            let loss = g.sum_all(sq);
            g.backward(loss);
            g.write_grads(&mut store);
            step(&mut store);
        }
        store.value(x)[0]
    }

    #[test]
    fn adam_converges() {
        let mut opt = Adam::new(0.1);
        let x = quadratic_descent(|s| opt.step(s));
        assert!((x - 3.0).abs() < 1e-2, "adam ended at {x}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn clip_reduces_large_norms_only() {
        let mut store = ParamStore::new();
        let a = store.add_param("a", 1, 2, vec![0.0, 0.0]);
        store.grad_mut(a).copy_from_slice(&[30.0, 40.0]); // norm 50
        let pre = clip_grad_norm(&mut store, 5.0);
        assert!((pre - 50.0).abs() < 1e-4);
        assert!((store.grad_norm() - 5.0).abs() < 1e-4);
        // Small gradients untouched.
        store.grad_mut(a).copy_from_slice(&[0.3, 0.4]);
        clip_grad_norm(&mut store, 5.0);
        assert_eq!(store.grad(a), &[0.3, 0.4]);
    }

    /// One noisy quadratic step: deterministic pseudo-gradient per step
    /// index so two trajectories can be compared bit for bit.
    fn adam_step(opt: &mut Adam, store: &mut ParamStore, x: crate::ParamId, k: u32) {
        let val = store.value(x)[0];
        let noise = ((k as f32 * 0.7).sin()) * 0.3;
        store.grad_mut(x)[0] = 2.0 * (val - 3.0) + noise;
        opt.step(store);
    }

    #[test]
    fn save_load_resumes_bit_identically() {
        let mut store_a = ParamStore::new();
        let xa = store_a.add_param("x", 1, 1, vec![-5.0]);
        let mut opt_a = Adam::new(0.05);
        for k in 0..40 {
            adam_step(&mut opt_a, &mut store_a, xa, k);
        }

        // Same trajectory, interrupted at step 25 by a save/load.
        let mut store_b = ParamStore::new();
        let xb = store_b.add_param("x", 1, 1, vec![-5.0]);
        let mut opt_b = Adam::new(0.05);
        for k in 0..25 {
            adam_step(&mut opt_b, &mut store_b, xb, k);
        }
        let mut blob = Vec::new();
        opt_b.save(&mut blob).unwrap();
        let mut opt_b = Adam::load(&blob[..]).unwrap();
        assert_eq!(opt_b.steps(), 25);
        for k in 25..40 {
            adam_step(&mut opt_b, &mut store_b, xb, k);
        }
        assert_eq!(
            store_a.value(xa)[0].to_bits(),
            store_b.value(xb)[0].to_bits(),
            "resumed Adam diverged from the uninterrupted run"
        );
    }

    #[test]
    fn fresh_adam_roundtrips_with_empty_moments() {
        let mut blob = Vec::new();
        Adam::new(0.01).save(&mut blob).unwrap();
        let back = Adam::load(&blob[..]).unwrap();
        assert_eq!(back.steps(), 0);
        assert_eq!(back.lr, 0.01);
    }

    #[test]
    fn load_rejects_corruption() {
        assert!(Adam::load(&b"junk"[..]).is_err());
        let mut store = ParamStore::new();
        let x = store.add_param("x", 1, 3, vec![0.0; 3]);
        let mut opt = Adam::new(0.1);
        store.grad_mut(x).copy_from_slice(&[1.0, 2.0, 3.0]);
        opt.step(&mut store);
        let mut blob = Vec::new();
        opt.save(&mut blob).unwrap();
        for cut in 0..blob.len() {
            assert!(Adam::load(&blob[..cut]).is_err(), "truncation at {cut} accepted");
        }
        // A corrupt slot length must not provoke a giant allocation.
        let mut corrupt = blob.clone();
        let len_off = 4 + 16 + 8 + 8; // magic + hyper + t + slot count
        corrupt[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Adam::load(&corrupt[..]).is_err());
    }

    #[test]
    fn optimizers_zero_grads_after_step() {
        let mut store = ParamStore::new();
        let a = store.add_param("a", 1, 1, vec![1.0]);
        store.grad_mut(a)[0] = 2.0;
        Adam::new(0.01).step(&mut store);
        assert_eq!(store.grad(a), &[0.0]);
    }
}
