//! The optimizer: [`Adam`].
//!
//! The optimizer is *cursor-based*: call [`Adam::begin_step`] once per
//! update, then feed every `(param, grad)` pair in a stable order (use
//! [`crate::Parameterized::for_each_param`]). Per-parameter moment
//! buffers are allocated lazily on first sight. Gradients are zeroed
//! after consumption.

/// The Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    t: i32,
    cursor: usize,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            cursor: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Starts an update step (resets the parameter cursor, bumps the
    /// bias-correction time).
    pub fn begin_step(&mut self) {
        self.t += 1;
        self.cursor = 0;
    }

    /// Updates one parameter tensor in place and zeroes its gradient.
    ///
    /// # Panics
    ///
    /// Panics if the tensor size changes between steps.
    pub fn update(&mut self, param: &mut [f32], grad: &mut [f32]) {
        if self.cursor == self.m.len() {
            self.m.push(vec![0.0; param.len()]);
            self.v.push(vec![0.0; param.len()]);
        }
        let m = &mut self.m[self.cursor];
        let v = &mut self.v[self.cursor];
        assert_eq!(
            m.len(),
            param.len(),
            "parameter shape changed between steps"
        );
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for i in 0..param.len() {
            let g = grad[i];
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
            let mh = m[i] / bc1;
            let vh = v[i] / bc2;
            param[i] -= self.lr * mh / (vh.sqrt() + self.eps);
            grad[i] = 0.0;
        }
        self.cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x − 3)² with the given update.
    fn quadratic_descent(update: &mut dyn FnMut(&mut [f32], &mut [f32])) -> f32 {
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            let mut grad = vec![2.0 * (x[0] - 3.0)];
            update(&mut x, &mut grad);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05);
        let x = quadratic_descent(&mut |p, g| {
            adam.begin_step();
            adam.update(p, g);
        });
        assert!((x - 3.0).abs() < 0.05, "x = {x}");
    }

    #[test]
    fn gradients_are_zeroed() {
        let mut adam = Adam::new(0.01);
        adam.begin_step();
        let mut p = vec![1.0f32, 2.0];
        let mut g = vec![0.5f32, -0.5];
        adam.update(&mut p, &mut g);
        assert_eq!(g, vec![0.0, 0.0]);
    }

    #[test]
    fn multiple_tensors_tracked_independently() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32];
        for _ in 0..200 {
            let mut ga = vec![2.0 * (a[0] - 1.0)];
            let mut gb = vec![2.0 * (b[0] + 2.0)];
            adam.begin_step();
            adam.update(&mut a, &mut ga);
            adam.update(&mut b, &mut gb);
        }
        assert!((a[0] - 1.0).abs() < 0.1, "a = {}", a[0]);
        assert!((b[0] + 2.0).abs() < 0.1, "b = {}", b[0]);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_change_detected() {
        let mut adam = Adam::new(0.1);
        adam.begin_step();
        let mut p = vec![0.0f32; 2];
        let mut g = vec![0.0f32; 2];
        adam.update(&mut p, &mut g);
        adam.begin_step();
        let mut p2 = vec![0.0f32; 3];
        let mut g2 = vec![0.0f32; 3];
        adam.update(&mut p2, &mut g2);
    }
}
