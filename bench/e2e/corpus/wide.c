/* A call loop on an 8-argument function: more arguments than parameter
   registers, so every call marshals stack-slot arguments. The callee is
   too large for the Inlining pass, so the calls stay.
   query: wide_loop(300) = 802216 */
int wide(int a, int b, int c, int d, int e, int f, int g, int h) {
  return (a - b) * 2 + (c - d) * 3 + (e - f) * 5 + (g - h) * 7 + (a ^ h)
         - (b | g) + (c & f) + (d ^ e);
}

int wide_loop(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += wide(i, 1, i + 2, 3, i + 4, 5, i + 6, 7);
  return s;
}
