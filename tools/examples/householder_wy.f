! Compact-WY block Householder QR (§5.3), which the paper proves a
! compiler cannot derive from the point algorithm (householder.f), written
! once in the §6 BLOCK DO language.  Per block of BS_K columns: factor the
! panel with the point algorithm, form the upper-triangular T with
! Q = I - V*T*V', then update each trailing column C by
! C = C - V*(T'*(V'*C)).  Y and W hold the block's V'*v and V'*C, then
! T'*(V'*C).
PARAMETER M, N
REAL*8 A(M,N), TAU(N), T(BS_K,BS_K), Y(BS_K), W(BS_K)
REAL*8 ALPHA, XNRM, BETA, SCALE, S
BLOCK DO K = 1, MIN(M,N)
  IN K DO KK
    ALPHA = A(KK,KK)
    XNRM = 0
    DO I = KK+1, M
      XNRM = XNRM + A(I,KK)*A(I,KK)
    ENDDO
    TAU(KK) = 0
    IF (XNRM .NE. 0) THEN
      BETA = SQRT(ALPHA*ALPHA + XNRM)
      IF (ALPHA .GE. 0) THEN
        BETA = -BETA
      ENDIF
      TAU(KK) = (BETA - ALPHA)/BETA
      SCALE = 1/(ALPHA - BETA)
      DO I = KK+1, M
        A(I,KK) = A(I,KK)*SCALE
      ENDDO
      A(KK,KK) = BETA
      DO J = KK+1, LAST(K)
        S = A(KK,J)
        DO I = KK+1, M
          S = S + A(I,KK)*A(I,J)
        ENDDO
        S = S*TAU(KK)
        A(KK,J) = A(KK,J) - S
        DO I = KK+1, M
          A(I,J) = A(I,J) - S*A(I,KK)
        ENDDO
      ENDDO
    ENDIF
  ENDDO
  IN K DO JJ
    T(JJ-K+1,JJ-K+1) = TAU(JJ)
    IN K DO II = K, JJ-1
      S = A(JJ,II)
      DO I = JJ+1, M
        S = S + A(I,II)*A(I,JJ)
      ENDDO
      Y(II-K+1) = S
    ENDDO
    IN K DO II = K, JJ-1
      S = 0
      IN K DO L = II, JJ-1
        S = S + T(II-K+1,L-K+1)*Y(L-K+1)
      ENDDO
      T(II-K+1,JJ-K+1) = -TAU(JJ)*S
    ENDDO
  ENDDO
  DO J = LAST(K)+1, N
    IN K DO KK
      S = A(KK,J)
      DO I = KK+1, M
        S = S + A(I,KK)*A(I,J)
      ENDDO
      Y(KK-K+1) = S
    ENDDO
    IN K DO JJ
      S = 0
      IN K DO II = K, JJ
        S = S + T(II-K+1,JJ-K+1)*Y(II-K+1)
      ENDDO
      W(JJ-K+1) = S
    ENDDO
    IN K DO KK
      A(KK,J) = A(KK,J) - W(KK-K+1)
      DO I = KK+1, M
        A(I,J) = A(I,J) - A(I,KK)*W(KK-K+1)
      ENDDO
    ENDDO
  ENDDO
ENDDO
