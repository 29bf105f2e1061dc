! Sorensen's block LU without pivoting, the paper's hand-coded "1" (§5.1),
! written once in the §6 BLOCK DO language: the compiler owns the block
! factor BS_K.  Each block's panel is factored with the point algorithm;
! then the panel's delayed eliminations are applied to each trailing
! column in turn, in point order, so the factors equal point LU's bitwise.
PARAMETER N
REAL*8 A(N,N)
BLOCK DO K = 1, N-1
  IN K DO KK
    DO I = KK+1, N
      20: A(I,KK) = A(I,KK)/A(KK,KK)
    ENDDO
    DO J = KK+1, LAST(K)
      DO I = KK+1, N
        10: A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
      ENDDO
    ENDDO
  ENDDO
  DO J = LAST(K)+1, N
    IN K DO KK
      DO I = KK+1, N
        10: A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
      ENDDO
    ENDDO
  ENDDO
ENDDO
