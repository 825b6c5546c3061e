//! Seeded generator of front-end-heavy Scheme programs.
//!
//! Each program is many definitions whose bodies nest `let`, `if`,
//! `cond`, `case`, `syntax-rules` macro uses and quoted data, plus one
//! deeply nested `let` chain and one deep non-tail recursion. The
//! generator builds a small expression tree, renders it as Scheme text,
//! and evaluates the same tree in Rust, so every program carries its
//! expected value without running the system under test.

use segstack_core::rng::SplitMix64;

/// Arithmetic stays within fixnums: every sum and product is reduced
/// modulo this prime (Scheme `modulo` and Rust `rem_euclid` agree for a
/// positive divisor).
const M: i64 = 10_007;

/// Source size each generated program grows to before its final forms.
const TARGET_BYTES: usize = 11_000;

/// Macros every generated program defines and uses.
const MACROS: &str = "(define-syntax swap-sub (syntax-rules () ((_ a b) (- b a))))
(define-syntax pick-max (syntax-rules () ((_ a b) (let ((x a) (y b)) (if (< x y) y x)))))
";

enum Expr {
    Num(i64),
    /// Index into the environment (innermost binding last).
    Var(usize),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, i64),
    /// `(swap-sub a b)` = b - a.
    SwapSub(Box<Expr>, Box<Expr>),
    /// `(pick-max a b)`.
    PickMax(Box<Expr>, Box<Expr>),
    /// `(let ((tN v)) body)`; the body sees the new binding.
    Let(Box<Expr>, Box<Expr>),
    /// `(if (< a b) t e)`.
    If(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(cond ((= a k) x) ((< a k) y) (else z))`.
    Cond(Box<Expr>, i64, Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(case (modulo a 4) ((0) x) ((1 2) y) (else z))`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(length '(...))` over a quoted list of `n` mixed data.
    QuoteLen(usize),
    /// `(gK a b)`: a call to an earlier generated function.
    Call(usize, Box<Expr>, Box<Expr>),
    /// A global defined earlier: `vK`.
    Global(usize),
}

struct Gen {
    rng: SplitMix64,
    /// Let-bound names in scope, outermost first (names are `t<depth>`
    /// for let bindings, `a`/`b` for function parameters).
    names: Vec<String>,
    funcs: usize,
    globals: usize,
    /// Calls still allowed in the expression being built: keeps the
    /// Rust-side evaluation (and the program's run time) linear.
    calls_left: u32,
}

impl Gen {
    fn pick(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0, n)
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        let d = depth - 1;
        match self.pick(11) {
            0 => Expr::Add(Box::new(self.expr(d)), Box::new(self.expr(d))),
            1 => Expr::Mul(Box::new(self.expr(d)), self.pick(9) as i64 + 1),
            2 => Expr::SwapSub(Box::new(self.expr(d)), Box::new(self.expr(d))),
            3 => Expr::PickMax(Box::new(self.expr(d)), Box::new(self.expr(d))),
            4 | 5 => {
                let v = self.expr(d);
                self.names.push(format!("t{}", self.names.len()));
                let body = self.expr(d);
                self.names.pop();
                Expr::Let(Box::new(v), Box::new(body))
            }
            6 => Expr::If(
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
            ),
            7 => Expr::Cond(
                Box::new(self.expr(d)),
                self.pick(50) as i64,
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
            ),
            8 => Expr::Case(
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
                Box::new(self.expr(d)),
            ),
            9 if self.funcs > 0 && self.calls_left > 0 => {
                self.calls_left -= 1;
                let f = self.pick(self.funcs as u64) as usize;
                Expr::Call(f, Box::new(self.expr(d)), Box::new(self.expr(d)))
            }
            _ => self.leaf(),
        }
    }

    fn leaf(&mut self) -> Expr {
        match self.pick(4) {
            0 if !self.names.is_empty() => Expr::Var(self.pick(self.names.len() as u64) as usize),
            1 if self.globals > 0 => Expr::Global(self.pick(self.globals as u64) as usize),
            2 => Expr::QuoteLen(self.pick(6) as usize + 1),
            _ => Expr::Num(self.pick(100) as i64),
        }
    }
}

/// Renders `e` with `names` as the environment.
fn render(e: &Expr, names: &mut Vec<String>, out: &mut String) {
    let bin = |op: &str, a: &Expr, b: &Expr, names: &mut Vec<String>, out: &mut String| {
        out.push('(');
        out.push_str(op);
        out.push(' ');
        render(a, names, out);
        out.push(' ');
        render(b, names, out);
        out.push(')');
    };
    match e {
        Expr::Num(n) => out.push_str(&n.to_string()),
        Expr::Var(i) => out.push_str(&names[*i]),
        Expr::Global(g) => out.push_str(&format!("v{g}")),
        Expr::Add(a, b) => {
            out.push_str("(modulo ");
            bin("+", a, b, names, out);
            out.push_str(&format!(" {M})"));
        }
        Expr::Mul(a, k) => {
            out.push_str("(modulo (* ");
            render(a, names, out);
            out.push_str(&format!(" {k}) {M})"));
        }
        Expr::SwapSub(a, b) => bin("swap-sub", a, b, names, out),
        Expr::PickMax(a, b) => bin("pick-max", a, b, names, out),
        Expr::Let(v, body) => {
            let name = format!("t{}", names.len());
            out.push_str(&format!("(let (({name} "));
            render(v, names, out);
            out.push_str(")) ");
            names.push(name);
            render(body, names, out);
            names.pop();
            out.push(')');
        }
        Expr::If(a, b, t, f) => {
            out.push_str("(if ");
            bin("<", a, b, names, out);
            out.push('\n');
            render(t, names, out);
            out.push(' ');
            render(f, names, out);
            out.push(')');
        }
        Expr::Cond(a, k, x, y, z) => {
            out.push_str("(cond ((= ");
            render(a, names, out);
            out.push_str(&format!(" {k}) "));
            render(x, names, out);
            out.push_str(")\n ((< ");
            render(a, names, out);
            out.push_str(&format!(" {k}) "));
            render(y, names, out);
            out.push_str(") (else ");
            render(z, names, out);
            out.push_str("))");
        }
        Expr::Case(a, x, y, z) => {
            out.push_str("(case (modulo ");
            render(a, names, out);
            out.push_str(" 4) ((0) ");
            render(x, names, out);
            out.push_str(") ((1 2) ");
            render(y, names, out);
            out.push_str(")\n (else ");
            render(z, names, out);
            out.push_str("))");
        }
        Expr::QuoteLen(n) => {
            const DATA: [&str; 6] = ["alpha", "\"str\"", "#\\c", "(1 (2 3) . 4)", "#t", "#(1 2)"];
            out.push_str("(length '(");
            for i in 0..*n {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(DATA[i % DATA.len()]);
            }
            out.push_str("))");
        }
        Expr::Call(f, a, b) => bin(&format!("g{f}"), a, b, names, out),
    }
}

/// Evaluates `e` in Rust: the generator's own reference semantics.
fn eval(e: &Expr, env: &mut Vec<i64>, funcs: &[Expr], globals: &[i64]) -> i64 {
    let ev = |x: &Expr, env: &mut Vec<i64>| eval(x, env, funcs, globals);
    match e {
        Expr::Num(n) => *n,
        Expr::Var(i) => env[*i],
        Expr::Global(g) => globals[*g],
        Expr::Add(a, b) => (ev(a, env) + ev(b, env)).rem_euclid(M),
        Expr::Mul(a, k) => (ev(a, env) * k).rem_euclid(M),
        Expr::SwapSub(a, b) => {
            // The macro expands to (- b a): b is evaluated first.
            let bv = ev(b, env);
            bv - ev(a, env)
        }
        Expr::PickMax(a, b) => ev(a, env).max(ev(b, env)),
        Expr::Let(v, body) => {
            let x = ev(v, env);
            env.push(x);
            let r = ev(body, env);
            env.pop();
            r
        }
        Expr::If(a, b, t, f) => {
            if ev(a, env) < ev(b, env) {
                ev(t, env)
            } else {
                ev(f, env)
            }
        }
        Expr::Cond(a, k, x, y, z) => {
            let v = ev(a, env);
            if v == *k {
                ev(x, env)
            } else if ev(a, env) < *k {
                ev(y, env)
            } else {
                ev(z, env)
            }
        }
        Expr::Case(a, x, y, z) => match ev(a, env).rem_euclid(4) {
            0 => ev(x, env),
            1 | 2 => ev(y, env),
            _ => ev(z, env),
        },
        Expr::QuoteLen(n) => *n as i64,
        Expr::Call(f, a, b) => {
            let mut args = vec![ev(a, env), ev(b, env)];
            eval(&funcs[*f], &mut args, funcs, globals)
        }
    }
}

/// One generated program: its source and expected printed value.
pub struct Generated {
    /// Scheme source text.
    pub source: String,
    /// The value the program must print.
    pub expected: String,
}

/// Generates one program from `seed`.
pub fn program(seed: u64) -> Generated {
    let mut g =
        Gen { rng: SplitMix64::new(seed), names: Vec::new(), funcs: 0, globals: 0, calls_left: 0 };
    let mut src = String::from(MACROS);
    let mut funcs: Vec<Expr> = Vec::new();
    let mut globals: Vec<i64> = Vec::new();
    for _ in 0..10 {
        g.names = vec!["a".into(), "b".into()];
        g.calls_left = 1;
        let body = g.expr(3);
        let mut names = g.names.clone();
        src.push_str(&format!("(define (g{} a b)\n  ", funcs.len()));
        render(&body, &mut names, &mut src);
        src.push_str(")\n");
        funcs.push(body);
        g.funcs += 1;
    }
    // Globals are added until the text reaches a fixed size, so programs
    // from different seeds carry about the same front-end work and code.
    while src.len() < TARGET_BYTES && globals.len() < 64 {
        g.names.clear();
        g.calls_left = 3;
        let e = g.expr(4);
        let v = eval(&e, &mut Vec::new(), &funcs, &globals);
        src.push_str(&format!("(define v{} ", globals.len()));
        render(&e, &mut Vec::new(), &mut src);
        src.push_str(")\n");
        globals.push(v);
        g.globals += 1;
    }
    // A deep but legal `let` chain: each binding adds a small constant
    // to the previous one.
    let depth = 60 + g.pick(60);
    let mut chain = 0i64;
    src.push_str("(define chain\n  (let ((c0 0))");
    for i in 1..=depth {
        let k = g.pick(10) as i64;
        chain += k;
        src.push_str(&format!("\n (let ((c{i} (+ c{} {k})))", i - 1));
    }
    src.push_str(&format!(" c{depth}"));
    src.push_str(&")".repeat(depth as usize + 2));
    src.push('\n');
    // A deep non-tail recursion, so the program also overflows a stack
    // segment at run time.
    let down = 4_000 + g.pick(4_000) as i64;
    src.push_str(&format!(
        "(define (down n) (if (= n 0) 0 (+ 1 (down (- n 1)))))\n(define deep (down {down}))\n"
    ));
    src.push_str("(modulo (+ chain deep");
    let mut total = chain + down;
    for (i, v) in globals.iter().enumerate() {
        src.push_str(&format!(" v{i}"));
        total += v;
    }
    src.push_str(&format!(") {M})\n"));
    Generated { source: src, expected: total.rem_euclid(M).to_string() }
}
