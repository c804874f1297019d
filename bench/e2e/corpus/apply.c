/* Indirect calls through a function pointer: three calls per
   iteration, none of them inlinable.
   query: apply_loop(300) = 56772 */
int add(int x, int y) { return x + y; }
int sub(int x, int y) { return x - y; }
int mul3(int x, int y) { return x * 3 + y; }

int apply(int (*op)(int, int), int x, int y) { return op(x, y); }

int apply_loop(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s = apply(add, s, i);
    s = apply(sub, s, i >> 1);
    s = apply(mul3, s, i) & 65535;
  }
  return s;
}
