/* A Brainfuck interpreter (bracket matching by scanning) running a
   program that computes 6 * 7 * 8 with three nested loops and then
   moves the product one cell right: an interpreter loop dispatching on
   byte loads, no calls.
   query: bf(39) = 336 */
int tape[64];
char prog[39] = {
  '+', '+', '+', '+', '+', '+', '[', '>', '+', '+', '+', '+', '+', '+',
  '+', '[', '>', '+', '+', '+', '+', '+', '+', '+', '+', '<', '-', ']',
  '<', '-', ']', '>', '>', '[', '>', '+', '<', '-', ']'
};

int bf(int plen) {
  int pc = 0;
  int ptr = 0;
  while (pc < plen) {
    char c = prog[pc];
    if (c == '+') tape[ptr]++;
    else if (c == '-') tape[ptr]--;
    else if (c == '>') ptr++;
    else if (c == '<') ptr--;
    else if (c == '[') {
      if (tape[ptr] == 0) {
        int depth = 1;
        while (depth > 0) {
          pc++;
          if (prog[pc] == '[') depth++;
          if (prog[pc] == ']') depth--;
        }
      }
    } else if (c == ']') {
      if (tape[ptr] != 0) {
        int depth = 1;
        while (depth > 0) {
          pc--;
          if (prog[pc] == ']') depth++;
          if (prog[pc] == '[') depth--;
        }
      }
    }
    pc++;
  }
  return tape[3];
}
