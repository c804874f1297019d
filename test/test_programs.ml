(** Whole-program differential tests on realistic algorithms: every level
    of the pipeline must refine the Clight behavior (Thm. 3.8 instances
    on nontrivial code). *)

open Testlib.Testutil

let sorting =
  [
    diff_case "bubble sort"
      {|
int a[10] = {9, 3, 7, 1, 8, 2, 6, 0, 5, 4};
int main(void) {
  for (int i = 0; i < 10; i++)
    for (int j = 0; j + 1 < 10 - i; j++)
      if (a[j] > a[j+1]) { int t = a[j]; a[j] = a[j+1]; a[j+1] = t; }
  int code = 0;
  for (int i = 0; i < 10; i++) code = code * 10 + a[i];
  return code;
}
|}
      123456789l;
    diff_case "insertion sort with pointers"
      {|
void isort(int *a, int n) {
  for (int i = 1; i < n; i++) {
    int key = a[i];
    int j = i - 1;
    while (j >= 0 && a[j] > key) { a[j+1] = a[j]; j--; }
    a[j+1] = key;
  }
}
int main(void) {
  int a[8];
  for (int i = 0; i < 8; i++) a[i] = (7 * (i + 3)) % 8;
  isort(a, 8);
  int ok = 1;
  for (int i = 0; i + 1 < 8; i++) if (a[i] > a[i+1]) ok = 0;
  return ok * 100 + a[0] * 10 + a[7];
}
|}
      107l;
    diff_case "quickselect-style partition"
      {|
int a[9] = {5, 2, 8, 1, 9, 4, 7, 3, 6};
int partition(int lo, int hi) {
  int pivot = a[hi];
  int i = lo - 1;
  for (int j = lo; j < hi; j++)
    if (a[j] < pivot) { i++; int t = a[i]; a[i] = a[j]; a[j] = t; }
  int t = a[i+1]; a[i+1] = a[hi]; a[hi] = t;
  return i + 1;
}
int main(void) { return partition(0, 8); }
|}
      5l;
  ]

let number_theory =
  [
    diff_case "gcd and lcm"
      {|
int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }
int main(void) {
  int g = gcd(252, 105);
  int l = 252 / g * 105;
  return g * 10000 + l / 10;
}
|}
      210126l;
    diff_case "sieve of Eratosthenes"
      {|
char sieve[100];
int main(void) {
  int count = 0;
  for (int i = 2; i < 100; i++) sieve[i] = 1;
  for (int i = 2; i * i < 100; i++)
    if (sieve[i])
      for (int j = i * i; j < 100; j += i) sieve[j] = 0;
  for (int i = 2; i < 100; i++) if (sieve[i]) count++;
  return count;
}
|}
      25l;
    diff_case "collatz steps"
      {|
int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
    steps++;
  }
  return steps;
}
int main(void) { return collatz(27); }
|}
      111l;
    diff_case "modular exponentiation on longs"
      {|
long powmod(long b, long e, long m) {
  long r = 1L;
  b = b % m;
  while (e > 0L) {
    if (e % 2L == 1L) r = r * b % m;
    e = e / 2L;
    b = b * b % m;
  }
  return r;
}
int main(void) { return (int) powmod(7L, 123L, 1000003L); }
|}
      247362l;
    diff_case "fibonacci iterative vs recursive"
      {|
int fibr(int n) { if (n < 2) return n; return fibr(n-1) + fibr(n-2); }
int fibi(int n) {
  int a = 0, b = 1;
  for (int i = 0; i < n; i++) { int t = a + b; a = b; b = t; }
  return a;
}
int main(void) { return (fibr(15) == fibi(15)) ? fibi(15) : -1; }
|}
      610l;
  ]

let data_structures =
  [
    diff_case "binary search"
      {|
int a[16];
int bsearch0(int key, int n) {
  int lo = 0, hi = n - 1;
  while (lo <= hi) {
    int mid = lo + (hi - lo) / 2;
    if (a[mid] == key) return mid;
    if (a[mid] < key) lo = mid + 1; else hi = mid - 1;
  }
  return -1;
}
int main(void) {
  for (int i = 0; i < 16; i++) a[i] = i * 3;
  return bsearch0(21, 16) * 100 + (bsearch0(22, 16) + 1);
}
|}
      700l;
    diff_case "ring buffer"
      {|
int buf[8];
int head = 0, tail = 0, count = 0;
void push(int v) { if (count < 8) { buf[tail] = v; tail = (tail + 1) % 8; count++; } }
int pop(void) { if (count == 0) return -1; int v = buf[head]; head = (head + 1) % 8; count--; return v; }
int main(void) {
  for (int i = 1; i <= 10; i++) push(i * i);
  int s = 0;
  for (int i = 0; i < 5; i++) s += pop();
  push(100);
  while (count > 0) s += pop();
  return s;
}
|}
      304l;
    diff_case "two-dimensional dynamic programming"
      {|
int dp[8][8];
int main(void) {
  for (int i = 0; i < 8; i++) dp[i][0] = 1;
  for (int j = 0; j < 8; j++) dp[0][j] = 1;
  for (int i = 1; i < 8; i++)
    for (int j = 1; j < 8; j++)
      dp[i][j] = dp[i-1][j] + dp[i][j-1];
  return dp[7][7];
}
|}
      3432l;
    diff_case "linked structure via index arrays"
      {|
int next[10];
int value[10];
int main(void) {
  /* Build the list 0 -> 2 -> 4 -> 6 -> 8, each holding its square. */
  for (int i = 0; i < 10; i++) { value[i] = i * i; next[i] = -1; }
  for (int i = 0; i + 2 < 10; i += 2) next[i] = i + 2;
  int s = 0;
  for (int cur = 0; cur != -1; cur = next[cur]) s += value[cur];
  return s;
}
|}
      120l;
    diff_case "string length and reverse on char arrays"
      {|
char s[16];
int strlen0(char *p) { int n = 0; while (p[n]) n++; return n; }
void reverse(char *p, int n) {
  for (int i = 0, j = n - 1; i < j; i++, j--) { char t = p[i]; p[i] = p[j]; p[j] = t; }
}
int main(void) {
  s[0] = 'h'; s[1] = 'e'; s[2] = 'l'; s[3] = 'l'; s[4] = 'o'; s[5] = 0;
  int n = strlen0(s);
  reverse(s, n);
  return n * 1000 + s[0] + s[4];
}
|}
      5215l;
  ]

let floating_point =
  [
    diff_case "newton's method for sqrt"
      {|
double fabs0(double x) { return x < 0.0 ? -x : x; }
int main(void) {
  double x = 2.0;
  double guess = 1.0;
  for (int i = 0; i < 20; i++) guess = (guess + x / guess) / 2.0;
  double err = fabs0(guess * guess - 2.0);
  return err < 1e-9 ? (int)(guess * 1000000.0) : -1;
}
|}
      1414213l;
    diff_case "polynomial evaluation (Horner)"
      {|
double horner(double *c, int n, double x) {
  double acc = 0.0;
  for (int i = n - 1; i >= 0; i--) acc = acc * x + c[i];
  return acc;
}
double coeffs[4];
int main(void) {
  coeffs[0] = 1.0; coeffs[1] = -2.0; coeffs[2] = 0.5; coeffs[3] = 3.0;
  return (int) (horner(coeffs, 4, 2.0) * 10.0);
}
|}
      230l;
    diff_case "kahan-free summation determinism"
      {|
int main(void) {
  double s = 0.0;
  for (int i = 1; i <= 100; i++) s += 1.0 / (double) i;
  return (int)(s * 1000.0);
}
|}
      5187l;
  ]

(* Float constants that OCaml's [( = )] and [compare] confuse: [0.0]
   with [-0.0], and a NaN with nothing, not even itself. The optimizing
   passes compare float constants by their bits, so each program below
   answers at every level as it does in Clight. *)
let float_constants =
  [
    diff_case "value analysis keeps 0.0 and -0.0 apart"
      {|
int f(int c) {
  double x;
  if (c) x = 0.0; else x = -0.0;
  double y = 1.0 / x;
  if (y > 0.0) return 1;
  return 2;
}
int main(void) { return f(0); }
|}
      2l;
    diff_case "CSE does not merge 0.0 * p with -0.0 * p"
      {|
int f(double p) {
  double a = 0.0 * p;
  double b = -0.0 * p;
  double y = 1.0 / b;
  double z = 1.0 / a;
  if (y < 0.0) return 1;
  return 2;
}
int main(void) { return f(1.0); }
|}
      1l;
    diff_case "a folded NaN constant passes the allocation validator"
      {|
int main(void) {
  double z = 0.0;
  double x = z / z;
  if (x != x) return 1;
  return 2;
}
|}
      1l;
  ]

(* Comma-separated multi-variable loops exercise the parser's statement
   lowering; these came up while writing the tests above. *)
let misc =
  [
    diff_case "nested function pointers"
      {|
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(int (*f)(int, int), int x, int y) { return f(x, y); }
int main(void) {
  int (*op)(int, int);
  op = add;
  int s = apply(op, 3, 4);
  op = mul;
  return s * 100 + apply(op, 3, 4);
}
|}
      712l;
    diff_case "mutual recursion with accumulators"
      {|
int dec(int n, int acc);
int inc(int n, int acc) { if (n >= 100) return dec(n, acc + 1); return inc(n + 7, acc + 1); }
int dec(int n, int acc) { if (n <= 0) return acc; return dec(n - 13, acc + 1); }
int main(void) { return inc(0, 0); }
|}
      25l;
    diff_case "sign-extension torture"
      {|
char c[4];
short s[2];
int main(void) {
  c[0] = -1; c[1] = 127; c[2] = -128; c[3] = 42;
  s[0] = -1; s[1] = 32767;
  int sum = 0;
  for (int i = 0; i < 4; i++) sum += c[i];
  return sum * 1000 + (s[0] + s[1]) % 1000;
}
|}
      40766l;
  ]

(* A Brainfuck interpreter interpreting a small program: an interpreter
   compiled by the compiler, stressing nested loops, char arrays and
   pointer arithmetic. The BF program computes 7 * 6 into cell 2. *)
let interpreter =
  [
    diff_case "brainfuck interpreter (7*6)"
      {|
char tape[64];
char prog[32];
int run(int plen) {
  int pc = 0;
  int ptr = 0;
  int steps = 0;
  while (pc < plen && steps < 10000) {
    char c = prog[pc];
    steps++;
    if (c == '+') tape[ptr]++;
    else if (c == '-') tape[ptr]--;
    else if (c == '>') ptr++;
    else if (c == '<') ptr--;
    else if (c == '[') {
      if (tape[ptr] == 0) {
        int depth = 1;
        while (depth > 0) { pc++; if (prog[pc] == '[') depth++; if (prog[pc] == ']') depth--; }
      }
    }
    else if (c == ']') {
      if (tape[ptr] != 0) {
        int depth = 1;
        while (depth > 0) { pc--; if (prog[pc] == ']') depth++; if (prog[pc] == '[') depth--; }
      }
    }
    pc++;
  }
  return tape[2];
}
int main(void) {
  /* +++++++ [ > ++++++ < - ]  then move cell1 to cell2 */
  int i = 0;
  prog[i] = '+'; i++; prog[i] = '+'; i++; prog[i] = '+'; i++; prog[i] = '+'; i++;
  prog[i] = '+'; i++; prog[i] = '+'; i++; prog[i] = '+'; i++;
  prog[i] = '['; i++;
  prog[i] = '>'; i++;
  prog[i] = '+'; i++; prog[i] = '+'; i++; prog[i] = '+'; i++;
  prog[i] = '+'; i++; prog[i] = '+'; i++; prog[i] = '+'; i++;
  prog[i] = '<'; i++; prog[i] = '-'; i++;
  prog[i] = ']'; i++;
  /* move cell 1 to cell 2: > [ > + < - ] */
  prog[i] = '>'; i++;
  prog[i] = '['; i++; prog[i] = '>'; i++; prog[i] = '+'; i++;
  prog[i] = '<'; i++; prog[i] = '-'; i++; prog[i] = ']'; i++;
  return run(i);
}
|}
      42l;
  ]

(* A terminating loop longer than the differential's fuel: 400,000
   iterations are more Clight steps than [Differential.fuel] allows, but
   fewer LTL ones, so a lower level answers where the reference has not.
   The reference has made no promise yet, so the verdict is inconclusive
   and no other level runs. *)
let out_of_fuel =
  [
    Alcotest.test_case "an out-of-fuel Clight reference is inconclusive" `Quick
      (fun () ->
        let src =
          {|
int main(void) {
  int s = 0;
  for (int i = 0; i < 400000; i++) s = s + (i & 3);
  return s & 255;
}
|}
        in
        match differential src with
        | Error e -> Alcotest.fail e
        | Ok [ { level = "clight1"; outcome = Ok (Core.Smallstep.Out_of_fuel _) } ]
          -> ()
        | Ok results ->
          Alcotest.failf "@[<v>expected only an out-of-fuel reference:@,%a@]"
            (Format.pp_print_list pp_level_result)
            results);
  ]

let suite =
  ( "programs",
    sorting @ number_theory @ data_structures @ floating_point @ float_constants @ misc
    @ interpreter @ out_of_fuel )
