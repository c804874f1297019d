/* Fig. 5 of the paper, unit B: k cross-unit calls of helper(20). Run
   both as Asm(A) (+) Asm(B) and as the linked Asm(A + B); the ratio of
   the two is the cost of horizontal composition.
   query: driver(200) = 38000 with fig5_helper.c */
int helper(int n);

int driver(int k) {
  int s = 0;
  for (int i = 0; i < k; i++) s += helper(20);
  return s;
}
