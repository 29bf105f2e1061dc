! Householder QR, the point algorithm (§5.3): one reflector per column,
! applied to the trailing columns at once.  Reflector K is
! I - TAU(K)*v*v' with v(K) = 1 implicit and v(K+1:M) stored below the
! diagonal; R ends up on and above it.  BETA = -sign(ALPHA)*norm.
PARAMETER M, N
REAL*8 A(M,N), TAU(N)
REAL*8 ALPHA, XNRM, BETA, SCALE, W
DO K = 1, MIN(M,N)
  ALPHA = A(K,K)
  XNRM = 0
  DO I = K+1, M
    XNRM = XNRM + A(I,K)*A(I,K)
  ENDDO
  TAU(K) = 0
  IF (XNRM .NE. 0) THEN
    BETA = SQRT(ALPHA*ALPHA + XNRM)
    IF (ALPHA .GE. 0) THEN
      BETA = -BETA
    ENDIF
    TAU(K) = (BETA - ALPHA)/BETA
    SCALE = 1/(ALPHA - BETA)
    DO I = K+1, M
      A(I,K) = A(I,K)*SCALE
    ENDDO
    A(K,K) = BETA
    DO J = K+1, N
      W = A(K,J)
      DO I = K+1, M
        W = W + A(I,K)*A(I,J)
      ENDDO
      W = W*TAU(K)
      A(K,J) = A(K,J) - W
      DO I = K+1, M
        A(I,J) = A(I,J) - W*A(I,K)
      ENDDO
    ENDDO
  ENDIF
ENDDO
