// gcc -O0 exit status: 1
// Comparing with an unsigned literal converts the other side.
int main() { return (-1 < 0u) * 10 + (-1 < 0); }
