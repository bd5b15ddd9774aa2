//! The problem container: variables, linear constraints, objective.

use crate::settings::Settings;
use crate::solver::{NoHooks, SolveResult, Solver};

/// Index of a variable in a [`Model`].
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct VarId(pub u32);

/// Variable integrality class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum VarType {
    /// Integer restricted to `{0, 1}` (bounds are clipped to `[0, 1]`).
    Binary,
    /// General integer.
    Integer,
    /// Continuous.
    Continuous,
}

/// A variable's static data.
#[derive(Clone, Debug)]
pub struct Var {
    pub name: String,
    pub vtype: VarType,
    pub lb: f64,
    pub ub: f64,
    /// Objective coefficient in the internal (minimization) sense.
    pub obj: f64,
}

/// A ranged linear constraint `lhs ≤ Σ coef·x ≤ rhs`.
#[derive(Clone, Debug)]
pub struct LinCons {
    pub name: String,
    pub lhs: f64,
    pub rhs: f64,
    pub terms: Vec<(VarId, f64)>,
}

impl LinCons {
    /// Activity at point `x`.
    pub fn activity(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * x[v.0 as usize]).sum()
    }

    /// Feasibility at `x` within `tol`.
    pub fn is_satisfied(&self, x: &[f64], tol: f64) -> bool {
        let a = self.activity(x);
        a >= self.lhs - tol && a <= self.rhs + tol
    }
}

/// A constraint integer program under construction.
///
/// The model always *minimizes internally*; [`Model::set_maximize`] flips
/// the objective sign on entry and results are reported back in the
/// user's sense.
#[derive(Clone, Debug, Default)]
pub struct Model {
    pub name: String,
    pub(crate) vars: Vec<Var>,
    pub(crate) conss: Vec<LinCons>,
    pub(crate) maximize: bool,
    pub obj_offset: f64,
}

impl Model {
    /// Empty model with the given name.
    pub fn new(name: &str) -> Self {
        Model { name: name.to_string(), ..Default::default() }
    }

    /// Adds a variable; `obj` is in the user's objective sense.
    pub fn add_var(&mut self, name: &str, vtype: VarType, lb: f64, ub: f64, obj: f64) -> VarId {
        let (lb, ub) = match vtype {
            VarType::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        assert!(lb <= ub, "bounds crossed for {name}: [{lb}, {ub}]");
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Var {
            name: format!("{}{}", name, id.0),
            vtype,
            lb,
            ub,
            obj: if self.maximize { -obj } else { obj },
        });
        id
    }

    /// Adds a ranged linear constraint.
    pub fn add_linear(&mut self, lhs: f64, rhs: f64, terms: &[(VarId, f64)]) -> usize {
        assert!(lhs <= rhs, "constraint sides crossed: [{lhs}, {rhs}]");
        let idx = self.conss.len();
        let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!((v.0 as usize) < self.vars.len(), "unknown variable");
            if c == 0.0 {
                continue;
            }
            if let Some(e) = merged.iter_mut().find(|(w, _)| *w == v) {
                e.1 += c;
            } else {
                merged.push((v, c));
            }
        }
        self.conss.push(LinCons { name: format!("c{idx}"), lhs, rhs, terms: merged });
        idx
    }

    /// Switches the objective sense to maximization. Must be called
    /// *before* adding variables (coefficients are negated on entry).
    pub fn set_maximize(&mut self) {
        assert!(self.vars.is_empty(), "set_maximize must precede add_var");
        self.maximize = true;
    }

    /// Converts an internal (minimization) objective value to the user's
    /// sense.
    pub fn external_obj(&self, internal: f64) -> f64 {
        if self.maximize {
            -(internal + self.obj_offset)
        } else {
            internal + self.obj_offset
        }
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_conss(&self) -> usize {
        self.conss.len()
    }

    pub fn var(&self, v: VarId) -> &Var {
        &self.vars[v.0 as usize]
    }

    pub(crate) fn var_mut(&mut self, v: VarId) -> &mut Var {
        &mut self.vars[v.0 as usize]
    }

    pub fn cons(&self, i: usize) -> &LinCons {
        &self.conss[i]
    }

    /// Iterates over all variables with their ids.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &Var)> {
        self.vars.iter().enumerate().map(|(i, v)| (VarId(i as u32), v))
    }

    /// Iterates over all linear constraints.
    pub fn conss(&self) -> impl Iterator<Item = &LinCons> {
        self.conss.iter()
    }

    /// True if every variable with an integrality requirement takes an
    /// integral value in `x` and all linear constraints hold.
    pub fn check_solution(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (i, var) in self.vars.iter().enumerate() {
            if x[i] < var.lb - tol || x[i] > var.ub + tol {
                return false;
            }
            if var.vtype != VarType::Continuous && (x[i] - x[i].round()).abs() > tol {
                return false;
            }
        }
        self.conss.iter().all(|c| c.is_satisfied(x, tol))
    }

    /// Internal-sense objective value (minimization, no offset).
    pub(crate) fn internal_obj(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Objective value at `x` in the user's sense.
    pub fn obj_value(&self, x: &[f64]) -> f64 {
        self.external_obj(self.internal_obj(x))
    }

    /// True if every objective coefficient is integral — enables the
    /// stronger "integral objective" cutoff in the solver.
    pub fn has_integral_objective(&self) -> bool {
        self.vars.iter().all(|v| {
            (v.obj - v.obj.round()).abs() < 1e-12
                && (v.vtype != VarType::Continuous || v.obj == 0.0)
        }) && (self.obj_offset - self.obj_offset.round()).abs() < 1e-12
    }

    /// Convenience: solve this model with default plugins and no hooks.
    pub fn optimize(&self, settings: Settings) -> SolveResult {
        let mut solver = Solver::new(self.clone(), settings);
        solver.solve(&mut NoHooks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_bounds_are_clipped() {
        let mut m = Model::new("t");
        let v = m.add_var("x", VarType::Binary, -3.0, 7.0, 1.0);
        assert_eq!((m.var(v).lb, m.var(v).ub), (0.0, 1.0));
    }

    #[test]
    fn maximize_flips_objective() {
        let mut m = Model::new("t");
        m.set_maximize();
        let v = m.add_var("x", VarType::Continuous, 0.0, 1.0, 5.0);
        assert_eq!(m.var(v).obj, -5.0);
        assert_eq!(m.obj_value(&[1.0]), 5.0);
    }

    #[test]
    fn check_solution_enforces_integrality() {
        let mut m = Model::new("t");
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0, 1.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0, 1.0);
        m.add_linear(0.0, 5.0, &[(x, 1.0), (y, 1.0)]);
        assert!(m.check_solution(&[2.0, 1.5], 1e-6));
        assert!(!m.check_solution(&[2.5, 1.5], 1e-6));
        assert!(!m.check_solution(&[2.0, 4.0], 1e-6)); // row violated
    }

    #[test]
    fn integral_objective_detection() {
        let mut m = Model::new("t");
        m.add_var("x", VarType::Integer, 0.0, 1.0, 2.0);
        assert!(m.has_integral_objective());
        m.add_var("y", VarType::Integer, 0.0, 1.0, 0.5);
        assert!(!m.has_integral_objective());
    }

    #[test]
    fn linear_merges_duplicates() {
        let mut m = Model::new("t");
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0, 0.0);
        let idx = m.add_linear(0.0, 1.0, &[(x, 1.0), (x, 1.5)]);
        assert_eq!(m.cons(idx).terms, vec![(x, 2.5)]);
    }
}
