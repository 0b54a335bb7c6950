//! Persistent trainable parameters.

use ehna_tgraph::ioutil::{self, checked_u32, read_u32};
use std::fmt;
use std::io::{self, Read, Write};

/// Magic of the parameter snapshot format: the `u32` 0x45484E50
/// ("EHNP" read big-endian), written little-endian, so the file opens
/// with the bytes `PNHE`. Unrelated to the EHNP wire protocol.
const MAGIC: u32 = 0x45484E50;
const VERSION: u32 = 1;

/// Handle to one parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) u32);

impl ParamId {
    /// Index into the store.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct ParamData {
    name: String,
    rows: usize,
    cols: usize,
    value: Vec<f32>,
    grad: Vec<f32>,
}

/// Owns every trainable tensor of a model: values plus gradient
/// accumulators. Lives across training steps while [`Graph`](crate::Graph)
/// tapes come and go.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<ParamData>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with explicit initial values.
    ///
    /// # Panics
    /// Panics if `value.len() != rows * cols`.
    pub fn add_param(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        value: Vec<f32>,
    ) -> ParamId {
        assert_eq!(value.len(), rows * cols, "param size mismatch");
        let id = ParamId(self.params.len() as u32);
        self.params.push(ParamData {
            name: name.into(),
            rows,
            cols,
            grad: vec![0.0; value.len()],
            value,
        });
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Shape `(rows, cols)` of a parameter.
    pub fn shape(&self, id: ParamId) -> (usize, usize) {
        let p = &self.params[id.index()];
        (p.rows, p.cols)
    }

    /// Descriptive name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.index()].name
    }

    /// Current value (row-major).
    pub fn value(&self, id: ParamId) -> &[f32] {
        &self.params[id.index()].value
    }

    /// Mutable value (for optimizers and manual surgery).
    pub fn value_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.params[id.index()].value
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.params[id.index()].grad
    }

    /// Mutable gradient accumulator.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.params[id.index()].grad
    }

    /// Split borrow of one parameter: mutable value alongside its
    /// (read-only) gradient. Lets optimizers update in place without
    /// copying the gradient buffer first.
    pub fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut [f32], &[f32]) {
        let p = &mut self.params[id.index()];
        (&mut p.value, &p.grad)
    }

    /// Reset all gradient accumulators to zero.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len() as u32).map(ParamId)
    }

    /// Serialize every parameter (names, shapes, values — not gradients)
    /// to a little-endian binary stream.
    ///
    /// # Errors
    /// `InvalidInput` if a count or shape field exceeds the format's
    /// `u32` range (instead of silently truncating and corrupting the
    /// stream), plus ordinary IO failures.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&ioutil::header(MAGIC.to_le_bytes(), VERSION))?;
        w.write_all(&checked_u32(self.params.len(), "param count")?.to_le_bytes())?;
        for p in &self.params {
            let name = p.name.as_bytes();
            w.write_all(&checked_u32(name.len(), "param name length")?.to_le_bytes())?;
            w.write_all(name)?;
            w.write_all(&checked_u32(p.rows, "param rows")?.to_le_bytes())?;
            w.write_all(&checked_u32(p.cols, "param cols")?.to_le_bytes())?;
            ioutil::write_f32_block(&mut w, &p.value)?;
        }
        Ok(())
    }

    /// Deserialize a snapshot written by [`ParamStore::save`].
    ///
    /// # Errors
    /// `InvalidData` on bad magic/version or truncated payloads.
    pub fn load<R: Read>(mut r: R) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        ioutil::read_header(&mut r, MAGIC.to_le_bytes(), VERSION..=VERSION)?;
        let count = read_u32(&mut r)? as usize;
        let mut store = ParamStore::new();
        for _ in 0..count {
            let name_len = read_u32(&mut r)? as usize;
            if name_len > 4096 {
                return Err(bad("implausible name length"));
            }
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name).map_err(|_| bad("non-utf8 name"))?;
            let rows = read_u32(&mut r)? as usize;
            let cols = read_u32(&mut r)? as usize;
            // Cap the tensor size before allocating: a corrupt shape
            // field must yield `InvalidData`, not a multi-GiB allocation.
            let scalars = rows.checked_mul(cols).filter(|&n| n <= (1 << 28));
            let Some(scalars) = scalars else {
                return Err(bad("implausible tensor shape"));
            };
            let value = ioutil::read_f32_block(&mut r, scalars)?;
            store.add_param(name, rows, cols, value);
        }
        Ok(store)
    }

    /// Copy parameter *values* from `other` into this store. Shapes and
    /// names must match position by position (same model architecture).
    ///
    /// # Errors
    /// Describes the first mismatch.
    pub fn load_values_from(&mut self, other: &ParamStore) -> Result<(), String> {
        if self.len() != other.len() {
            return Err(format!("param count mismatch: {} vs {}", self.len(), other.len()));
        }
        for (mine, theirs) in self.params.iter().zip(&other.params) {
            if mine.name != theirs.name {
                return Err(format!("param name mismatch: '{}' vs '{}'", mine.name, theirs.name));
            }
            if (mine.rows, mine.cols) != (theirs.rows, theirs.cols) {
                return Err(format!(
                    "shape mismatch for '{}': {}x{} vs {}x{}",
                    mine.name, mine.rows, mine.cols, theirs.rows, theirs.cols
                ));
            }
        }
        for (mine, theirs) in self.params.iter_mut().zip(&other.params) {
            mine.value.copy_from_slice(&theirs.value);
        }
        Ok(())
    }

    /// Global L2 norm of all gradients (for clipping diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.params.iter().flat_map(|p| p.grad.iter()).map(|g| g * g).sum::<f32>().sqrt()
    }
}

impl fmt::Display for ParamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ParamStore ({} tensors, {} scalars)", self.len(), self.num_scalars())?;
        for p in &self.params {
            writeln!(f, "  {:<24} [{} x {}]", p.name, p.rows, p.cols)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", 2, 3, vec![0.0; 6]);
        let b = s.add_param("b", 1, 1, vec![5.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 7);
        assert_eq!(s.shape(a), (2, 3));
        assert_eq!(s.value(b), &[5.0]);
        assert_eq!(s.name(a), "a");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let mut s = ParamStore::new();
        s.add_param("bad", 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn zero_grads_and_norm() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", 1, 2, vec![0.0, 0.0]);
        s.grad_mut(a).copy_from_slice(&[3.0, 4.0]);
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.zero_grads();
        assert_eq!(s.grad(a), &[0.0, 0.0]);
        assert_eq!(s.grad_norm(), 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut s = ParamStore::new();
        s.add_param("w1", 2, 3, vec![1.0, -2.0, 3.5, 0.0, 9.0, -0.125]);
        s.add_param("b", 1, 1, vec![42.0]);
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let loaded = ParamStore::load(&buf[..]).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.name(ParamId(0)), "w1");
        assert_eq!(loaded.shape(ParamId(0)), (2, 3));
        assert_eq!(loaded.value(ParamId(0)), s.value(ParamId(0)));
        assert_eq!(loaded.value(ParamId(1)), &[42.0]);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(ParamStore::load(&b"nope"[..]).is_err());
        let mut s = ParamStore::new();
        s.add_param("x", 1, 2, vec![1.0, 2.0]);
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(ParamStore::load(&buf[..]).is_err());
    }

    #[test]
    fn load_values_from_checks_layout() {
        let mut a = ParamStore::new();
        a.add_param("w", 1, 2, vec![0.0, 0.0]);
        let mut b = ParamStore::new();
        b.add_param("w", 1, 2, vec![3.0, 4.0]);
        a.load_values_from(&b).unwrap();
        assert_eq!(a.value(ParamId(0)), &[3.0, 4.0]);

        let mut c = ParamStore::new();
        c.add_param("other", 1, 2, vec![0.0, 0.0]);
        assert!(a.load_values_from(&c).unwrap_err().contains("name mismatch"));
        let mut d = ParamStore::new();
        d.add_param("w", 2, 1, vec![0.0, 0.0]);
        assert!(a.load_values_from(&d).unwrap_err().contains("shape mismatch"));
        let e = ParamStore::new();
        assert!(a.load_values_from(&e).unwrap_err().contains("count mismatch"));
    }

    #[test]
    fn ids_enumerate_in_order() {
        let mut s = ParamStore::new();
        let a = s.add_param("a", 1, 1, vec![0.0]);
        let b = s.add_param("b", 1, 1, vec![0.0]);
        let ids: Vec<ParamId> = s.ids().collect();
        assert_eq!(ids, vec![a, b]);
    }
}
